// Runtime CPU-feature detection and tensor-backend dispatch policy.
//
// The tensor kernels (gemm.h) ship a scalar reference implementation and,
// when the build supports it, an AVX2/FMA implementation. Which one runs is
// decided per process:
//
//   1. `RPT_TENSOR_BACKEND=scalar|avx2|auto` (environment) pins the backend.
//      Forcing `avx2` on a host without AVX2+FMA (or in a build without the
//      AVX2 translation unit) logs a warning and falls back to scalar rather
//      than executing illegal instructions.
//   2. Otherwise `auto`: AVX2 when both the build and the host support it.
//
// Tests and benches can flip the decision at runtime with a
// ScopedTensorBackendOverride, which takes precedence over the environment.
// The scalar backend is the bit-exactness anchor: with dispatch forced to
// scalar, every kernel result is bit-identical to the pre-SIMD
// implementation.

#ifndef RPT_TENSOR_CPU_FEATURES_H_
#define RPT_TENSOR_CPU_FEATURES_H_

namespace rpt {

enum class TensorBackend {
  kScalar = 0,
  kAvx2 = 1,
};

/// True when the running CPU reports AVX2 and FMA.
bool CpuSupportsAvx2Fma();

/// True when this binary contains the AVX2 kernel translation unit.
bool BuiltWithAvx2();

/// The backend the dispatched kernels will use, after applying the
/// override, the RPT_TENSOR_BACKEND environment variable, and hardware/build
/// capability, in that order.
TensorBackend ActiveTensorBackend();

/// "scalar" or "avx2".
const char* TensorBackendName(TensorBackend backend);

/// RAII: pins the dispatch decision for the whole process while in scope —
/// every thread, including threads started inside the scope — taking
/// precedence over the environment. Nests; the previous value is restored
/// on destruction. Requesting kAvx2 when unsupported degrades to scalar
/// (with a warning), mirroring the environment-variable path. Scopes on
/// different threads must nest too: they share the one process-wide value.
class ScopedTensorBackendOverride {
 public:
  explicit ScopedTensorBackendOverride(TensorBackend backend);
  ~ScopedTensorBackendOverride();
  ScopedTensorBackendOverride(const ScopedTensorBackendOverride&) = delete;
  ScopedTensorBackendOverride& operator=(const ScopedTensorBackendOverride&) =
      delete;

 private:
  int prev_;
};

}  // namespace rpt

#endif  // RPT_TENSOR_CPU_FEATURES_H_
