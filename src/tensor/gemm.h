// SGEMM micro-kernels and row-wise reduction kernels behind runtime dispatch.
//
// Every public kernel here exists in two implementations:
//
//   * `*Scalar` — the reference implementation. Plain loops, fixed
//     accumulation order, no data-dependent shortcuts. When dispatch selects
//     the scalar backend (see cpu_features.h) results are bit-identical to
//     the pre-SIMD tree, which is what keeps the serve layer's bit-identity
//     guarantees meaningful.
//   * AVX2/FMA — blocked, register-tiled kernels in gemm_avx2.cc, compiled
//     with -mavx2 -mfma and only ever called after a runtime CPU check.
//     Reassociated accumulation means results agree with scalar to a
//     tolerance (~1e-4 max abs for the shapes the model uses), not bitwise.
//
// The un-suffixed entry points (GemmNN, SoftmaxRows, ...) dispatch on
// ActiveTensorBackend(). All GEMM kernels *accumulate* into C
// (C += op(A) * op(B)); callers zero C first when they want a plain product.
// No kernel skips zero inputs: 0 * NaN must stay NaN and latency must not
// depend on data values.

#ifndef RPT_TENSOR_GEMM_H_
#define RPT_TENSOR_GEMM_H_

#include <cstdint>

namespace rpt {

// ---- Dispatched GEMM -------------------------------------------------------

/// C[M,N] += A[M,K] * B[K,N].
void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n);

/// C[M,N] += A[M,K] * B[N,K]^T.
void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n);

/// C[K,N] += A[M,K]^T * B[M,N].
void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n);

// ---- Fused bias + activation epilogue --------------------------------------

enum class GemmEpilogue {
  kNone = 0,      // C = A * B
  kBias,          // C = A * B + bias
  kBiasRelu,      // C = relu(A * B + bias)
  kBiasGelu,      // C = gelu(A * B + bias)   (tanh-approximation GELU)
};

/// C[M,N] = epilogue(A[M,K] * B[K,N] + bias[N]). Unlike GemmNN this
/// *overwrites*: C must be zero-filled on entry (the product accumulates into
/// it, then the epilogue sweeps it in place). `bias` may be null only with
/// kNone. The scalar path composes bit-identically with
/// GemmNNScalar + bias add + the tensor-level Relu/Gelu formulas.
void GemmNNEx(const float* a, const float* b, const float* bias, float* c,
              int64_t m, int64_t k, int64_t n, GemmEpilogue epilogue);

// ---- Dispatched row-wise reductions ----------------------------------------

/// Row-wise softmax over [rows, cols]: y[r] = softmax(x[r]). `x` may alias
/// `y` (x == y computes in place, bit-identical to the out-of-place result);
/// partially overlapping buffers are not supported.
void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t cols);

/// Row-wise log-softmax over [rows, cols].
void LogSoftmaxRows(const float* x, float* y, int64_t rows, int64_t cols);

/// Row-wise layer norm over [rows, cols]:
///   y = (x - mean) / sqrt(var + eps) * gamma + beta.
/// When `stats` is non-null it receives per-row (mean, inv_std) pairs
/// (2 * rows floats) for the backward pass.
void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float* y, float* stats, int64_t rows, int64_t cols,
                   float eps);

// ---- Scalar reference implementations --------------------------------------

void GemmNNScalar(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n);
void GemmNTScalar(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n);
void GemmTNScalar(const float* a, const float* b, float* c, int64_t m,
                  int64_t k, int64_t n);
void GemmNNExScalar(const float* a, const float* b, const float* bias,
                    float* c, int64_t m, int64_t k, int64_t n,
                    GemmEpilogue epilogue);
void SoftmaxRowsScalar(const float* x, float* y, int64_t rows, int64_t cols);
void LogSoftmaxRowsScalar(const float* x, float* y, int64_t rows,
                          int64_t cols);
void LayerNormRowsScalar(const float* x, const float* gamma,
                         const float* beta, float* y, float* stats,
                         int64_t rows, int64_t cols, float eps);

// ---- AVX2 implementations (gemm_avx2.cc) -----------------------------------
//
// Defined only when the build carries the AVX2 translation unit
// (BuiltWithAvx2()); callable only on hosts where CpuSupportsAvx2Fma().
// Use the dispatched entry points unless you are testing equivalence.

namespace detail {

void GemmNNAvx2(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);
void GemmNTAvx2(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);
void GemmTNAvx2(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n);
void GemmNNExAvx2(const float* a, const float* b, const float* bias, float* c,
                  int64_t m, int64_t k, int64_t n, GemmEpilogue epilogue);
void SoftmaxRowsAvx2(const float* x, float* y, int64_t rows, int64_t cols);
void LogSoftmaxRowsAvx2(const float* x, float* y, int64_t rows, int64_t cols);
void LayerNormRowsAvx2(const float* x, const float* gamma, const float* beta,
                       float* y, float* stats, int64_t rows, int64_t cols,
                       float eps);

}  // namespace detail

}  // namespace rpt

#endif  // RPT_TENSOR_GEMM_H_
