// AVX2/FMA implementations of the tensor kernels declared in gemm.h.
//
// This translation unit is compiled with -mavx2 -mfma (see src/CMakeLists.txt)
// and is only entered through runtime dispatch after CpuSupportsAvx2Fma(), so
// no instruction here can fault on a non-AVX2 host. When the build cannot
// target AVX2 the whole file compiles empty and dispatch stays scalar.
//
// GEMM strategy: register-tiled 6x16 micro-kernel (12 accumulator ymm
// registers, 2 B-panel registers, 1 broadcast register) over full K. For the
// model's shapes (K <= ~1024) a 16-column B panel spans at most 64 KiB of
// strided loads and stays cache-resident across the M sweep, so no explicit
// packing pass is needed to keep FMA ports busy. Row and column remainders
// fall back to narrower tiles / scalar loops. Accumulation order differs
// from the scalar kernels (8-wide trees vs strict left-to-right), so results
// match scalar to ~1e-4 max abs, not bitwise — see DESIGN.md §13.

#include "tensor/gemm.h"

#ifdef RPT_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/logging.h"

namespace rpt {
namespace detail {

namespace {

inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

inline float HorizontalMax(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_max_ps(lo, hi);
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

// Cephes-style single-precision exp on 8 lanes. Max relative error ~2 ulp
// over the clamped domain; inputs are clamped to [-bound, bound], and the
// default bound is the widest one whose result never overflows.
inline __m256 Exp256(__m256 x, float bound = 88.3762626647949f) {
  x = _mm256_min_ps(_mm256_max_ps(x, _mm256_set1_ps(-bound)),
                    _mm256_set1_ps(bound));

  const __m256 kLog2e = _mm256_set1_ps(1.44269504088896341f);
  __m256 fx = _mm256_fmadd_ps(x, kLog2e, _mm256_set1_ps(0.5f));
  fx = _mm256_floor_ps(fx);

  // x -= fx * ln2, split into a high and low part for precision.
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);

  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));

  __m256i pow2 = _mm256_cvttps_epi32(fx);
  pow2 = _mm256_add_epi32(pow2, _mm256_set1_epi32(127));
  pow2 = _mm256_slli_epi32(pow2, 23);
  return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2));
}

// tanh(x) = 1 - 2 / (exp(2x) + 1). exp's argument is clamped at +-20, not
// Exp256's default +-88.4: for |x| >= 10 tanh is exactly +-1 in fp32 under
// either bound, but only the tighter one keeps 2 / (e + 1) normal. At +-88
// it is subnormal, and the microcode assist on each subnormal result makes
// GELU on large inputs about 10x slower.
inline __m256 Tanh256(__m256 x) {
  const __m256 kOne = _mm256_set1_ps(1.0f);
  const __m256 kTwo = _mm256_set1_ps(2.0f);
  const __m256 e = Exp256(_mm256_mul_ps(x, kTwo), 20.0f);
  return _mm256_sub_ps(kOne,
                       _mm256_div_ps(kTwo, _mm256_add_ps(e, kOne)));
}

// tanh-approximation GELU on 8 lanes (same formula as the scalar Gelu op).
inline __m256 Gelu256(__m256 x) {
  const __m256 kSqrt2OverPi = _mm256_set1_ps(0.7978845608028654f);
  const __m256 kCoef = _mm256_set1_ps(0.044715f);
  const __m256 kHalf = _mm256_set1_ps(0.5f);
  const __m256 kOne = _mm256_set1_ps(1.0f);
  const __m256 x2 = _mm256_mul_ps(x, x);
  const __m256 x3 = _mm256_mul_ps(x2, x);
  const __m256 inner =
      _mm256_mul_ps(kSqrt2OverPi, _mm256_fmadd_ps(kCoef, x3, x));
  const __m256 t = Tanh256(inner);
  return _mm256_mul_ps(_mm256_mul_ps(kHalf, x), _mm256_add_ps(kOne, t));
}

// ---- GEMM NN micro-kernels -------------------------------------------------

// C[ROWS,16] += A[ROWS,k] * B[k,16]; B rows strided by ldb, C rows by ldc.
template <int ROWS>
inline void MicroNx16(const float* a, int64_t lda, const float* b,
                      int64_t ldb, float* c, int64_t ldc, int64_t k) {
  __m256 acc0[ROWS];
  __m256 acc1[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    acc0[r] = _mm256_loadu_ps(c + r * ldc);
    acc1[r] = _mm256_loadu_ps(c + r * ldc + 8);
  }
  for (int64_t p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b + p * ldb);
    const __m256 b1 = _mm256_loadu_ps(b + p * ldb + 8);
    for (int r = 0; r < ROWS; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc0[r]);
    _mm256_storeu_ps(c + r * ldc + 8, acc1[r]);
  }
}

// C[ROWS,8] += A[ROWS,k] * B[k,8].
template <int ROWS>
inline void MicroNx8(const float* a, int64_t lda, const float* b, int64_t ldb,
                     float* c, int64_t ldc, int64_t k) {
  __m256 acc[ROWS];
  for (int r = 0; r < ROWS; ++r) acc[r] = _mm256_loadu_ps(c + r * ldc);
  for (int64_t p = 0; p < k; ++p) {
    const __m256 b0 = _mm256_loadu_ps(b + p * ldb);
    for (int r = 0; r < ROWS; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
      acc[r] = _mm256_fmadd_ps(av, b0, acc[r]);
    }
  }
  for (int r = 0; r < ROWS; ++r) _mm256_storeu_ps(c + r * ldc, acc[r]);
}

// Packed-panel variants: B has compile-time stride 16 (resp. 8), walked by
// pointer bump, with the k-loop unrolled 2x. Same multiply-add order per
// output element as the generic micro-kernels, so results stay bitwise
// identical between the packed and unpacked paths.
template <int ROWS>
inline void MicroNx16Packed(const float* a, int64_t lda, const float* b,
                            float* c, int64_t ldc, int64_t k) {
  __m256 acc0[ROWS];
  __m256 acc1[ROWS];
  for (int r = 0; r < ROWS; ++r) {
    acc0[r] = _mm256_loadu_ps(c + r * ldc);
    acc1[r] = _mm256_loadu_ps(c + r * ldc + 8);
  }
  int64_t p = 0;
  for (; p + 2 <= k; p += 2, b += 32) {
    const __m256 b0 = _mm256_loadu_ps(b);
    const __m256 b1 = _mm256_loadu_ps(b + 8);
    for (int r = 0; r < ROWS; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
    const __m256 b2 = _mm256_loadu_ps(b + 16);
    const __m256 b3 = _mm256_loadu_ps(b + 24);
    for (int r = 0; r < ROWS; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + p + 1);
      acc0[r] = _mm256_fmadd_ps(av, b2, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b3, acc1[r]);
    }
  }
  for (; p < k; ++p, b += 16) {
    const __m256 b0 = _mm256_loadu_ps(b);
    const __m256 b1 = _mm256_loadu_ps(b + 8);
    for (int r = 0; r < ROWS; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
  for (int r = 0; r < ROWS; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc0[r]);
    _mm256_storeu_ps(c + r * ldc + 8, acc1[r]);
  }
}

template <int ROWS>
inline void MicroNx8Packed(const float* a, int64_t lda, const float* b,
                           float* c, int64_t ldc, int64_t k) {
  __m256 acc[ROWS];
  for (int r = 0; r < ROWS; ++r) acc[r] = _mm256_loadu_ps(c + r * ldc);
  for (int64_t p = 0; p < k; ++p, b += 8) {
    const __m256 b0 = _mm256_loadu_ps(b);
    for (int r = 0; r < ROWS; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
      acc[r] = _mm256_fmadd_ps(av, b0, acc[r]);
    }
  }
  for (int r = 0; r < ROWS; ++r) _mm256_storeu_ps(c + r * ldc, acc[r]);
}

using MicroFn16 = void (*)(const float*, int64_t, const float*, int64_t,
                           float*, int64_t, int64_t);
using MicroFnPacked = void (*)(const float*, int64_t, const float*, float*,
                               int64_t, int64_t);

constexpr MicroFn16 kMicro16[7] = {nullptr,      MicroNx16<1>, MicroNx16<2>,
                                   MicroNx16<3>, MicroNx16<4>, MicroNx16<5>,
                                   MicroNx16<6>};
constexpr MicroFn16 kMicro8[7] = {nullptr,     MicroNx8<1>, MicroNx8<2>,
                                  MicroNx8<3>, MicroNx8<4>, MicroNx8<5>,
                                  MicroNx8<6>};
constexpr MicroFnPacked kMicro16Packed[7] = {
    nullptr,           MicroNx16Packed<1>, MicroNx16Packed<2>,
    MicroNx16Packed<3>, MicroNx16Packed<4>, MicroNx16Packed<5>,
    MicroNx16Packed<6>};
constexpr MicroFnPacked kMicro8Packed[7] = {
    nullptr,          MicroNx8Packed<1>, MicroNx8Packed<2>,
    MicroNx8Packed<3>, MicroNx8Packed<4>, MicroNx8Packed<5>,
    MicroNx8Packed<6>};

}  // namespace

void GemmNNAvx2(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n) {
  const int64_t n16 = n - (n % 16);
  const int64_t n8 = n - (n % 8);
  // Pack each 16-column B panel into a contiguous [k, 16] buffer so the
  // micro-kernel's k-loop streams 64 contiguous bytes per step instead of
  // striding n*4 bytes through B (which blows past L1 once n >= ~128). The
  // O(k*16) copy is amortized over the ceil(m/6) micro-kernel calls that
  // reuse the panel, so skip it when m is too small to pay it back. Packing
  // only relocates values — the multiply-add order is unchanged, so results
  // are bitwise identical to the unpacked path.
  const bool pack = m > 8;
  std::vector<float> packed;
  if (pack && n16 > 0) packed.resize(static_cast<size_t>(k) * 16);
  for (int64_t jb = 0; jb < n16; jb += 16) {
    int64_t i = 0;
    if (pack) {
      for (int64_t p = 0; p < k; ++p) {
        std::memcpy(packed.data() + p * 16, b + p * n + jb,
                    16 * sizeof(float));
      }
      for (; i + 6 <= m; i += 6) {
        MicroNx16Packed<6>(a + i * k, k, packed.data(), c + i * n + jb, n, k);
      }
      const int rem = static_cast<int>(m - i);
      if (rem > 0) {
        kMicro16Packed[rem](a + i * k, k, packed.data(), c + i * n + jb, n,
                            k);
      }
    } else {
      for (; i + 6 <= m; i += 6) {
        MicroNx16<6>(a + i * k, k, b + jb, n, c + i * n + jb, n, k);
      }
      const int rem = static_cast<int>(m - i);
      if (rem > 0) {
        kMicro16[rem](a + i * k, k, b + jb, n, c + i * n + jb, n, k);
      }
    }
  }
  if (n8 > n16) {
    int64_t i = 0;
    if (pack) {
      packed.resize(static_cast<size_t>(k) * 8);
      for (int64_t p = 0; p < k; ++p) {
        std::memcpy(packed.data() + p * 8, b + p * n + n16,
                    8 * sizeof(float));
      }
      for (; i + 6 <= m; i += 6) {
        MicroNx8Packed<6>(a + i * k, k, packed.data(), c + i * n + n16, n,
                          k);
      }
      const int rem = static_cast<int>(m - i);
      if (rem > 0) {
        kMicro8Packed[rem](a + i * k, k, packed.data(), c + i * n + n16, n,
                           k);
      }
    } else {
      for (; i + 6 <= m; i += 6) {
        MicroNx8<6>(a + i * k, k, b + n16, n, c + i * n + n16, n, k);
      }
      const int rem = static_cast<int>(m - i);
      if (rem > 0) {
        kMicro8[rem](a + i * k, k, b + n16, n, c + i * n + n16, n, k);
      }
    }
  }
  if (n8 < n) {
    // Column tail (< 8 columns): scalar AXPY over just those columns.
    for (int64_t i = 0; i < m; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        const float* brow = b + p * n;
        for (int64_t j = n8; j < n; ++j) {
          crow[j] += av * brow[j];
        }
      }
    }
  }
}

void GemmNTAvx2(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n) {
  const int64_t k8 = k - (k % 8);
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b + (j + 1) * k;
      const float* b2 = b + (j + 2) * k;
      const float* b3 = b + (j + 3) * k;
      __m256 acc0 = _mm256_setzero_ps();
      __m256 acc1 = _mm256_setzero_ps();
      __m256 acc2 = _mm256_setzero_ps();
      __m256 acc3 = _mm256_setzero_ps();
      for (int64_t p = 0; p < k8; p += 8) {
        const __m256 av = _mm256_loadu_ps(arow + p);
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + p), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + p), acc1);
        acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + p), acc2);
        acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + p), acc3);
      }
      float d0 = HorizontalSum(acc0);
      float d1 = HorizontalSum(acc1);
      float d2 = HorizontalSum(acc2);
      float d3 = HorizontalSum(acc3);
      for (int64_t p = k8; p < k; ++p) {
        const float av = arow[p];
        d0 += av * b0[p];
        d1 += av * b1[p];
        d2 += av * b2[p];
        d3 += av * b3[p];
      }
      crow[j] += d0;
      crow[j + 1] += d1;
      crow[j + 2] += d2;
      crow[j + 3] += d3;
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      __m256 acc = _mm256_setzero_ps();
      for (int64_t p = 0; p < k8; p += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                              _mm256_loadu_ps(brow + p), acc);
      }
      float d = HorizontalSum(acc);
      for (int64_t p = k8; p < k; ++p) d += arow[p] * brow[p];
      crow[j] += d;
    }
  }
}

void GemmTNAvx2(const float* a, const float* b, float* c, int64_t m,
                int64_t k, int64_t n) {
  const int64_t n8 = n - (n % 8);
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    const float* brow = b + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const __m256 av = _mm256_broadcast_ss(arow + p);
      float* crow = c + p * n;
      int64_t j = 0;
      for (; j < n8; j += 8) {
        const __m256 cj = _mm256_loadu_ps(crow + j);
        _mm256_storeu_ps(crow + j,
                         _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + j), cj));
      }
      const float avs = arow[p];
      for (; j < n; ++j) crow[j] += avs * brow[j];
    }
  }
}

void GemmNNExAvx2(const float* a, const float* b, const float* bias, float* c,
                  int64_t m, int64_t k, int64_t n, GemmEpilogue epilogue) {
  RPT_CHECK(epilogue == GemmEpilogue::kNone || bias != nullptr)
      << "bias epilogue requires a bias vector";
  GemmNNAvx2(a, b, c, m, k, n);
  if (epilogue == GemmEpilogue::kNone) return;
  const int64_t n8 = n - (n % 8);
  const __m256 kZero = _mm256_setzero_ps();
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j < n8; j += 8) {
      __m256 v = _mm256_add_ps(_mm256_loadu_ps(crow + j),
                               _mm256_loadu_ps(bias + j));
      switch (epilogue) {
        case GemmEpilogue::kBias:
          break;
        case GemmEpilogue::kBiasRelu:
          v = _mm256_max_ps(v, kZero);
          break;
        case GemmEpilogue::kBiasGelu:
          v = Gelu256(v);
          break;
        case GemmEpilogue::kNone:
          break;
      }
      _mm256_storeu_ps(crow + j, v);
    }
    for (; j < n; ++j) {
      float v = crow[j] + bias[j];
      switch (epilogue) {
        case GemmEpilogue::kBias:
          break;
        case GemmEpilogue::kBiasRelu:
          v = v > 0.0f ? v : 0.0f;
          break;
        case GemmEpilogue::kBiasGelu: {
          constexpr float kSqrt2OverPi = 0.7978845608028654f;
          constexpr float kCoef = 0.044715f;
          const float inner = kSqrt2OverPi * (v + kCoef * v * v * v);
          v = 0.5f * v * (1.0f + std::tanh(inner));
          break;
        }
        case GemmEpilogue::kNone:
          break;
      }
      crow[j] = v;
    }
  }
}

// ---- Row-wise reductions ---------------------------------------------------

void SoftmaxRowsAvx2(const float* x, float* y, int64_t rows, int64_t cols) {
  const int64_t c8 = cols - (cols % 8);
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* yr = y + r * cols;

    float mx = xr[0];
    if (c8 > 0) {
      __m256 vmax = _mm256_loadu_ps(xr);
      for (int64_t c = 8; c < c8; c += 8) {
        vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(xr + c));
      }
      mx = HorizontalMax(vmax);
    }
    for (int64_t c = c8; c < cols; ++c) mx = std::max(mx, xr[c]);

    const __m256 vmx = _mm256_set1_ps(mx);
    __m256 vsum = _mm256_setzero_ps();
    for (int64_t c = 0; c < c8; c += 8) {
      const __m256 e = Exp256(_mm256_sub_ps(_mm256_loadu_ps(xr + c), vmx));
      _mm256_storeu_ps(yr + c, e);
      vsum = _mm256_add_ps(vsum, e);
    }
    float sum = HorizontalSum(vsum);
    for (int64_t c = c8; c < cols; ++c) {
      yr[c] = std::exp(xr[c] - mx);
      sum += yr[c];
    }

    const float inv = 1.0f / sum;
    const __m256 vinv = _mm256_set1_ps(inv);
    for (int64_t c = 0; c < c8; c += 8) {
      _mm256_storeu_ps(yr + c,
                       _mm256_mul_ps(_mm256_loadu_ps(yr + c), vinv));
    }
    for (int64_t c = c8; c < cols; ++c) yr[c] *= inv;
  }
}

void LogSoftmaxRowsAvx2(const float* x, float* y, int64_t rows,
                        int64_t cols) {
  const int64_t c8 = cols - (cols % 8);
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* yr = y + r * cols;

    float mx = xr[0];
    if (c8 > 0) {
      __m256 vmax = _mm256_loadu_ps(xr);
      for (int64_t c = 8; c < c8; c += 8) {
        vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(xr + c));
      }
      mx = HorizontalMax(vmax);
    }
    for (int64_t c = c8; c < cols; ++c) mx = std::max(mx, xr[c]);

    const __m256 vmx = _mm256_set1_ps(mx);
    __m256 vsum = _mm256_setzero_ps();
    for (int64_t c = 0; c < c8; c += 8) {
      vsum = _mm256_add_ps(
          vsum, Exp256(_mm256_sub_ps(_mm256_loadu_ps(xr + c), vmx)));
    }
    float sum = HorizontalSum(vsum);
    for (int64_t c = c8; c < cols; ++c) sum += std::exp(xr[c] - mx);

    const float lse = mx + std::log(sum);
    const __m256 vlse = _mm256_set1_ps(lse);
    for (int64_t c = 0; c < c8; c += 8) {
      _mm256_storeu_ps(yr + c,
                       _mm256_sub_ps(_mm256_loadu_ps(xr + c), vlse));
    }
    for (int64_t c = c8; c < cols; ++c) yr[c] = xr[c] - lse;
  }
}

void LayerNormRowsAvx2(const float* x, const float* gamma, const float* beta,
                       float* y, float* stats, int64_t rows, int64_t cols,
                       float eps) {
  const int64_t c8 = cols - (cols % 8);
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    float* yr = y + r * cols;

    __m256 vsum = _mm256_setzero_ps();
    for (int64_t c = 0; c < c8; c += 8) {
      vsum = _mm256_add_ps(vsum, _mm256_loadu_ps(xr + c));
    }
    float mean = HorizontalSum(vsum);
    for (int64_t c = c8; c < cols; ++c) mean += xr[c];
    mean /= static_cast<float>(cols);

    const __m256 vmean = _mm256_set1_ps(mean);
    __m256 vvar = _mm256_setzero_ps();
    for (int64_t c = 0; c < c8; c += 8) {
      const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(xr + c), vmean);
      vvar = _mm256_fmadd_ps(d, d, vvar);
    }
    float var = HorizontalSum(vvar);
    for (int64_t c = c8; c < cols; ++c) {
      const float d = xr[c] - mean;
      var += d * d;
    }
    var /= static_cast<float>(cols);
    const float inv_std = 1.0f / std::sqrt(var + eps);
    if (stats != nullptr) {
      stats[r * 2] = mean;
      stats[r * 2 + 1] = inv_std;
    }

    const __m256 vinv = _mm256_set1_ps(inv_std);
    for (int64_t c = 0; c < c8; c += 8) {
      const __m256 norm = _mm256_mul_ps(
          _mm256_sub_ps(_mm256_loadu_ps(xr + c), vmean), vinv);
      _mm256_storeu_ps(yr + c,
                       _mm256_fmadd_ps(norm, _mm256_loadu_ps(gamma + c),
                                       _mm256_loadu_ps(beta + c)));
    }
    for (int64_t c = c8; c < cols; ++c) {
      yr[c] = (xr[c] - mean) * inv_std * gamma[c] + beta[c];
    }
  }
}

}  // namespace detail
}  // namespace rpt

#endif  // RPT_HAVE_AVX2
