// Tests for the dispatched tensor kernels: scalar-vs-AVX2 equivalence across
// odd shapes, fused-epilogue correctness vs the unfused composition, and the
// backend dispatch override.
//
// The forced-backend ctest entries (kernels_test_forced_scalar /
// kernels_test_forced_avx2 in tests/CMakeLists.txt) rerun this whole binary
// with RPT_TENSOR_BACKEND pinned each way, including under asan/tsan.

#include "tensor/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/cpu_features.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace rpt {
namespace {

bool Avx2Available() { return BuiltWithAvx2() && CpuSupportsAvx2Fma(); }

// What dispatch resolves a kAvx2 request to on this host and build.
TensorBackend Avx2OrScalar() {
  return Avx2Available() ? TensorBackend::kAvx2 : TensorBackend::kScalar;
}

std::vector<float> RandVec(int64_t n, Rng* rng, float stddev = 1.0f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng->Normal(0.0, stddev));
  return v;
}

float MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float mx = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    mx = std::max(mx, std::fabs(a[i] - b[i]));
  }
  return mx;
}

// ---- Dispatch plumbing -----------------------------------------------------

TEST(CpuFeaturesTest, BackendNameRoundTrip) {
  EXPECT_STREQ(TensorBackendName(TensorBackend::kScalar), "scalar");
  EXPECT_STREQ(TensorBackendName(TensorBackend::kAvx2), "avx2");
}

TEST(CpuFeaturesTest, EnvironmentVariableIsHonored) {
  // When the harness (forced ctest entries) pins the backend, the dispatch
  // decision must follow it; `avx2` degrades to scalar when unsupported.
  const char* env = std::getenv("RPT_TENSOR_BACKEND");
  if (env == nullptr) GTEST_SKIP() << "RPT_TENSOR_BACKEND not set";
  const std::string request(env);
  if (request == "scalar") {
    EXPECT_EQ(ActiveTensorBackend(), TensorBackend::kScalar);
  } else if (request == "avx2") {
    EXPECT_EQ(ActiveTensorBackend(), Avx2OrScalar());
  }
}

TEST(CpuFeaturesTest, OverrideForcesBothWays) {
  const TensorBackend before = ActiveTensorBackend();
  {
    ScopedTensorBackendOverride guard(TensorBackend::kScalar);
    EXPECT_EQ(ActiveTensorBackend(), TensorBackend::kScalar);
  }
  EXPECT_EQ(ActiveTensorBackend(), before);
  {
    ScopedTensorBackendOverride guard(TensorBackend::kAvx2);
    EXPECT_EQ(ActiveTensorBackend(), Avx2OrScalar());
  }
  EXPECT_EQ(ActiveTensorBackend(), before);
}

TEST(CpuFeaturesTest, NestedOverridesRestoreTheOuterValue) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host/build";
  ScopedTensorBackendOverride outer(TensorBackend::kScalar);
  {
    ScopedTensorBackendOverride inner(TensorBackend::kAvx2);
    EXPECT_EQ(ActiveTensorBackend(), TensorBackend::kAvx2);
    {
      ScopedTensorBackendOverride innermost(TensorBackend::kScalar);
      EXPECT_EQ(ActiveTensorBackend(), TensorBackend::kScalar);
    }
    EXPECT_EQ(ActiveTensorBackend(), TensorBackend::kAvx2);
  }
  EXPECT_EQ(ActiveTensorBackend(), TensorBackend::kScalar);
}

TEST(CpuFeaturesTest, OverrideWinsOverEnvironment) {
  // Under each forced ctest entry, an override naming the *other* backend
  // decides dispatch.
  const char* env = std::getenv("RPT_TENSOR_BACKEND");
  if (env == nullptr) GTEST_SKIP() << "RPT_TENSOR_BACKEND not set";
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host/build";
  const TensorBackend other = std::string(env) == "scalar"
                                  ? TensorBackend::kAvx2
                                  : TensorBackend::kScalar;
  ASSERT_NE(ActiveTensorBackend(), other);
  ScopedTensorBackendOverride guard(other);
  EXPECT_EQ(ActiveTensorBackend(), other);
}

TEST(CpuFeaturesTest, ThreadStartedInsideScopeDispatchesUnderIt) {
  // The override is process-wide: a worker started inside the scope (as
  // serve_throughput's forced-scalar replica collectors are) resolves the
  // same backend, and under scalar its GEMM is the scalar reference bit
  // for bit.
  Rng rng(8);
  const int64_t m = 5, k = 21, n = 19;
  auto a = RandVec(m * k, &rng);
  auto b = RandVec(k * n, &rng);
  std::vector<float> c_ref(static_cast<size_t>(m * n), 0.0f);
  GemmNNScalar(a.data(), b.data(), c_ref.data(), m, k, n);
  for (TensorBackend backend :
       {TensorBackend::kScalar, TensorBackend::kAvx2}) {
    ScopedTensorBackendOverride guard(backend);
    TensorBackend seen{};
    std::vector<float> c_worker(c_ref.size(), 0.0f);
    std::thread worker([&] {
      seen = ActiveTensorBackend();
      GemmNN(a.data(), b.data(), c_worker.data(), m, k, n);
    });
    worker.join();
    if (backend == TensorBackend::kScalar) {
      EXPECT_EQ(seen, TensorBackend::kScalar);
      EXPECT_EQ(c_worker, c_ref);
    } else {
      EXPECT_EQ(seen, Avx2OrScalar());
      EXPECT_LE(MaxAbsDiff(c_worker, c_ref), 1e-4f);
    }
  }
}

TEST(CpuFeaturesTest, ScalarDispatchIsBitExact) {
  // With dispatch forced to scalar, the dispatched entry point must be
  // bit-identical to the scalar reference — this is the anchor for the
  // serve layer's bit-identity guarantees.
  Rng rng(7);
  const int64_t m = 9, k = 33, n = 17;
  auto a = RandVec(m * k, &rng);
  auto b = RandVec(k * n, &rng);
  std::vector<float> c_dispatched(static_cast<size_t>(m * n), 0.5f);
  std::vector<float> c_ref = c_dispatched;
  ScopedTensorBackendOverride guard(TensorBackend::kScalar);
  GemmNN(a.data(), b.data(), c_dispatched.data(), m, k, n);
  GemmNNScalar(a.data(), b.data(), c_ref.data(), m, k, n);
  EXPECT_EQ(c_dispatched, c_ref);
}

// ---- NaN/Inf propagation (zero-skip regression, kernel level) -------------

TEST(GemmTest, NoZeroSkipNaNPropagation) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float a[4] = {0, 0, 0, 0};
  const float b[4] = {nan, 1, nan, 1};
  for (TensorBackend backend :
       {TensorBackend::kScalar, TensorBackend::kAvx2}) {
    ScopedTensorBackendOverride guard(backend);
    float c_nn[4] = {0, 0, 0, 0};
    GemmNN(a, b, c_nn, 2, 2, 2);
    EXPECT_TRUE(std::isnan(c_nn[0])) << TensorBackendName(backend);
    float c_tn[4] = {0, 0, 0, 0};
    GemmTN(a, b, c_tn, 2, 2, 2);
    EXPECT_TRUE(std::isnan(c_tn[0])) << TensorBackendName(backend);
    float c_nt[4] = {0, 0, 0, 0};
    GemmNT(a, b, c_nt, 2, 2, 2);
    EXPECT_TRUE(std::isnan(c_nt[0])) << TensorBackendName(backend);
  }
}

// ---- Scalar vs AVX2 equivalence -------------------------------------------

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, Avx2MatchesScalarAllKernels) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host/build";
  auto [m, k, n] = GetParam();
  Rng rng(1000 + m * 131 + k * 17 + n);
  auto a = RandVec(static_cast<int64_t>(m) * k, &rng);
  auto bt = RandVec(static_cast<int64_t>(n) * k, &rng);  // for NT
  auto b = RandVec(static_cast<int64_t>(k) * n, &rng);
  auto b_tn = RandVec(static_cast<int64_t>(m) * n, &rng);  // for TN
  // Accumulation semantics: start both sides from the same non-zero C.
  auto c0_nn = RandVec(static_cast<int64_t>(m) * n, &rng, 0.1f);
  auto c0_nt = c0_nn;
  auto c0_tn = RandVec(static_cast<int64_t>(k) * n, &rng, 0.1f);

  auto run = [&](TensorBackend backend, std::vector<float>* nn,
                 std::vector<float>* nt, std::vector<float>* tn) {
    ScopedTensorBackendOverride guard(backend);
    *nn = c0_nn;
    GemmNN(a.data(), b.data(), nn->data(), m, k, n);
    *nt = c0_nt;
    GemmNT(a.data(), bt.data(), nt->data(), m, k, n);
    *tn = c0_tn;
    GemmTN(a.data(), b_tn.data(), tn->data(), m, k, n);
  };
  std::vector<float> nn_s, nt_s, tn_s, nn_v, nt_v, tn_v;
  run(TensorBackend::kScalar, &nn_s, &nt_s, &tn_s);
  run(TensorBackend::kAvx2, &nn_v, &nt_v, &tn_v);

  // Reassociated fp32 accumulation: tolerance scales mildly with K.
  const float tol = 1e-4f;
  EXPECT_LE(MaxAbsDiff(nn_s, nn_v), tol) << "NN " << m << "x" << k << "x" << n;
  EXPECT_LE(MaxAbsDiff(nt_s, nt_v), tol) << "NT " << m << "x" << k << "x" << n;
  EXPECT_LE(MaxAbsDiff(tn_s, tn_v), tol) << "TN " << m << "x" << k << "x" << n;
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, GemmShapeTest,
    ::testing::Values(
        std::make_tuple(1, 1, 1),       // degenerate
        std::make_tuple(1, 64, 8),      // single row
        std::make_tuple(5, 1, 3),       // k = 1
        std::make_tuple(6, 16, 32),     // exact tile multiples
        std::make_tuple(7, 17, 33),     // every dimension a tail
        std::make_tuple(13, 29, 23),    // 16 < n < 24: one 16-panel + tail
        std::make_tuple(64, 64, 64),    // square, tile-aligned
        std::make_tuple(2, 128, 96),    // wide K
        std::make_tuple(33, 3, 9),      // n < 16: 8-panel + scalar tail
        std::make_tuple(4, 11, 7)));    // n < 8: scalar-tail only

TEST(ReductionKernelsTest, Avx2MatchesScalar) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host/build";
  Rng rng(77);
  for (int64_t cols : {1, 3, 7, 8, 9, 31, 64, 200}) {
    const int64_t rows = 5;
    auto x = RandVec(rows * cols, &rng, 2.0f);
    auto gamma = RandVec(cols, &rng, 0.5f);
    auto beta = RandVec(cols, &rng, 0.5f);
    std::vector<float> soft_s(x.size()), soft_v(x.size());
    std::vector<float> lsoft_s(x.size()), lsoft_v(x.size());
    std::vector<float> ln_s(x.size()), ln_v(x.size());
    std::vector<float> stats_s(rows * 2), stats_v(rows * 2);
    {
      ScopedTensorBackendOverride guard(TensorBackend::kScalar);
      SoftmaxRows(x.data(), soft_s.data(), rows, cols);
      LogSoftmaxRows(x.data(), lsoft_s.data(), rows, cols);
      LayerNormRows(x.data(), gamma.data(), beta.data(), ln_s.data(),
                    stats_s.data(), rows, cols, 1e-5f);
    }
    {
      ScopedTensorBackendOverride guard(TensorBackend::kAvx2);
      SoftmaxRows(x.data(), soft_v.data(), rows, cols);
      LogSoftmaxRows(x.data(), lsoft_v.data(), rows, cols);
      LayerNormRows(x.data(), gamma.data(), beta.data(), ln_v.data(),
                    stats_v.data(), rows, cols, 1e-5f);
    }
    EXPECT_LE(MaxAbsDiff(soft_s, soft_v), 1e-5f) << "softmax cols=" << cols;
    EXPECT_LE(MaxAbsDiff(lsoft_s, lsoft_v), 1e-4f)
        << "logsoftmax cols=" << cols;
    EXPECT_LE(MaxAbsDiff(ln_s, ln_v), 1e-4f) << "layernorm cols=" << cols;
    EXPECT_LE(MaxAbsDiff(stats_s, stats_v), 1e-4f) << "stats cols=" << cols;
  }
}

TEST(ReductionKernelsTest, SoftmaxInPlaceMatchesOutOfPlaceBitExact) {
  // The inference attention path runs SoftmaxRows(x, x, ...) over its score
  // panels; aliasing must not change a single bit on either backend.
  std::vector<TensorBackend> backends = {TensorBackend::kScalar};
  if (Avx2Available()) backends.push_back(TensorBackend::kAvx2);
  Rng rng(78);
  for (TensorBackend backend : backends) {
    ScopedTensorBackendOverride guard(backend);
    for (int64_t cols : {1, 3, 7, 8, 9, 31, 64, 200}) {
      const int64_t rows = 5;
      auto x = RandVec(rows * cols, &rng, 2.0f);
      // Masked entries, as the attention bias produces them.
      for (size_t i = 0; i < x.size(); i += 3) x[i] -= 1e9f;
      std::vector<float> out_of_place(x.size());
      SoftmaxRows(x.data(), out_of_place.data(), rows, cols);
      std::vector<float> in_place = x;
      SoftmaxRows(in_place.data(), in_place.data(), rows, cols);
      for (size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(in_place[i], out_of_place[i])
            << TensorBackendName(backend) << " cols=" << cols << " i=" << i;
      }
    }
  }
}

// ---- Fused epilogues -------------------------------------------------------

TEST(FusedEpilogueTest, ScalarFusedMatchesUnfusedComposition) {
  Rng rng(31);
  const int64_t m = 7, k = 19, n = 13;
  auto a = RandVec(m * k, &rng);
  auto b = RandVec(k * n, &rng);
  auto bias = RandVec(n, &rng);

  // Unfused composition through the scalar reference kernel.
  std::vector<float> base(static_cast<size_t>(m * n), 0.0f);
  GemmNNScalar(a.data(), b.data(), base.data(), m, k, n);
  auto composed = [&](GemmEpilogue ep) {
    std::vector<float> y = base;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        float v = y[i * n + j] + bias[j];
        if (ep == GemmEpilogue::kBiasRelu) v = v > 0.0f ? v : 0.0f;
        if (ep == GemmEpilogue::kBiasGelu) {
          constexpr float kSqrt2OverPi = 0.7978845608028654f;
          constexpr float kCoef = 0.044715f;
          const float inner = kSqrt2OverPi * (v + kCoef * v * v * v);
          v = 0.5f * v * (1.0f + std::tanh(inner));
        }
        y[i * n + j] = v;
      }
    }
    return y;
  };

  for (GemmEpilogue ep : {GemmEpilogue::kBias, GemmEpilogue::kBiasRelu,
                          GemmEpilogue::kBiasGelu}) {
    std::vector<float> fused(static_cast<size_t>(m * n), 0.0f);
    GemmNNExScalar(a.data(), b.data(), bias.data(), fused.data(), m, k, n,
                   ep);
    EXPECT_LE(MaxAbsDiff(fused, composed(ep)), 1e-6f)
        << "epilogue " << static_cast<int>(ep);
  }
}

TEST(FusedEpilogueTest, Avx2FusedMatchesScalarFused) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host/build";
  Rng rng(32);
  // The last shape scales A so GELU's inputs pass +-10, where the AVX2
  // tanh saturates.
  for (auto [m, k, n, a_stddev] :
       {std::make_tuple(6, 16, 32, 1.0f), std::make_tuple(7, 9, 5, 1.0f),
        std::make_tuple(1, 33, 17, 1.0f), std::make_tuple(6, 16, 32, 4.0f)}) {
    auto a = RandVec(static_cast<int64_t>(m) * k, &rng, a_stddev);
    auto b = RandVec(static_cast<int64_t>(k) * n, &rng);
    auto bias = RandVec(n, &rng);
    float max_pre_activation = 0.0f;
    for (GemmEpilogue ep :
         {GemmEpilogue::kNone, GemmEpilogue::kBias, GemmEpilogue::kBiasRelu,
          GemmEpilogue::kBiasGelu}) {
      std::vector<float> scalar_out(static_cast<size_t>(m) * n, 0.0f);
      std::vector<float> avx2_out(static_cast<size_t>(m) * n, 0.0f);
      GemmNNExScalar(a.data(), b.data(),
                     ep == GemmEpilogue::kNone ? nullptr : bias.data(),
                     scalar_out.data(), m, k, n, ep);
      {
        ScopedTensorBackendOverride guard(TensorBackend::kAvx2);
        GemmNNEx(a.data(), b.data(),
                 ep == GemmEpilogue::kNone ? nullptr : bias.data(),
                 avx2_out.data(), m, k, n, ep);
      }
      if (ep == GemmEpilogue::kBias) {
        for (float v : scalar_out) {
          max_pre_activation = std::max(max_pre_activation, std::fabs(v));
        }
      }
      EXPECT_LE(MaxAbsDiff(scalar_out, avx2_out), 1e-4f)
          << m << "x" << k << "x" << n << " a_stddev " << a_stddev
          << " epilogue " << static_cast<int>(ep);
    }
    if (a_stddev > 1.0f) {
      EXPECT_GT(max_pre_activation, 10.0f);
    }
  }
}

TEST(FusedEpilogueTest, MatMulBiasActMatchesCompositionBothModes) {
  Rng rng(33);
  Tensor x = Tensor::Randn({3, 4, 10}, 1.0f, &rng);
  Tensor w = Tensor::Randn({10, 6}, 0.5f, &rng);
  Tensor bias = Tensor::Randn({6}, 0.5f, &rng);

  // Inference (fused kernel path) vs the explicit composition.
  NoGradGuard guard;
  for (FusedAct act : {FusedAct::kNone, FusedAct::kRelu, FusedAct::kGelu}) {
    Tensor fused = MatMulBiasAct(x, w, bias, act);
    Tensor ref = Add(MatMul(x, w), bias);
    if (act == FusedAct::kRelu) ref = Relu(ref);
    if (act == FusedAct::kGelu) ref = Gelu(ref);
    EXPECT_LE(MaxAbsDiff(fused.ToVector(), ref.ToVector()), 1e-4f)
        << "act " << static_cast<int>(act);
  }
}

TEST(FusedEpilogueTest, MatMulBiasActGradientsUnchanged) {
  // Under autograd MatMulBiasAct must lower to the exact composition, so
  // GradCheck through it validates that no fused path leaks into training.
  Rng rng(34);
  Tensor w = Tensor::Randn({5, 4}, 0.5f, &rng);
  Tensor bias = Tensor::Randn({4}, 0.5f, &rng);
  w.set_requires_grad(true);
  bias.set_requires_grad(true);
  auto fn = [&](const Tensor& x) {
    return Sum(MatMulBiasAct(x, w, bias, FusedAct::kGelu));
  };
  Tensor x = Tensor::Randn({3, 5}, 0.8f, &rng);
  EXPECT_LT(GradCheck(fn, x, 8, &rng), 1e-2);
}

// ---- End-to-end: model forward equivalence across backends ----------------

TEST(BackendEquivalenceTest, RandomizedMatMulShapesWithinTolerance) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA on this host/build";
  Rng rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t m = 1 + static_cast<int64_t>(rng.UniformInt(40));
    const int64_t k = 1 + static_cast<int64_t>(rng.UniformInt(96));
    const int64_t n = 1 + static_cast<int64_t>(rng.UniformInt(40));
    Tensor a = Tensor::Randn({m, k}, 1.0f, &rng);
    Tensor b = Tensor::Randn({k, n}, 1.0f, &rng);
    NoGradGuard guard;
    std::vector<float> scalar_out, avx2_out;
    {
      ScopedTensorBackendOverride g(TensorBackend::kScalar);
      scalar_out = MatMul(a, b).ToVector();
    }
    {
      ScopedTensorBackendOverride g(TensorBackend::kAvx2);
      avx2_out = MatMul(a, b).ToVector();
    }
    EXPECT_LE(MaxAbsDiff(scalar_out, avx2_out), 1e-4f)
        << m << "x" << k << "x" << n;
  }
}

}  // namespace
}  // namespace rpt
