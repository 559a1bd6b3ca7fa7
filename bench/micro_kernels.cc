// Microbenchmarks (google-benchmark) for the substrate kernels: GEMM,
// softmax/layernorm, attention forward/backward, tokenizer, similarity,
// pair features and blocking throughput.
//
// Extra modes (see main):
//   --selftest        correctness + speed gate for the dispatched GEMM, for
//                     inference attention against the composed graph and
//                     for the pooled encode against the full one, suitable
//                     as a ctest entry (exit code 1 on failure).
//   --json-out=PATH   self-timed scalar-vs-SIMD GEMM comparison plus the
//                     attention and pooled-encode rows, written as
//                     BENCH_kernels.json (see README "Performance").

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "baselines/sim_features.h"
#include "nn/attention.h"
#include "nn/transformer.h"
#include "rpt/blocker.h"
#include "synth/benchmarks.h"
#include "synth/universe.h"
#include "tensor/cpu_features.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace rpt {
namespace {

// GEMM kernels *accumulate* (C += A*B), so C must be re-zeroed between
// iterations. An earlier version of these benchmarks skipped the re-zero;
// combined with the (since removed) `a == 0` skip in the scalar kernel that
// made C drift to Inf and the timing data-dependent. The re-zero happens
// under PauseTiming so only the kernel is measured.

void BM_GemmNN(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor c = Tensor::Zeros({n, n});
  for (auto _ : state) {
    GemmNN(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    std::memset(c.data(), 0, sizeof(float) * static_cast<size_t>(n * n));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNN)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_GemmNNScalar(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor c = Tensor::Zeros({n, n});
  for (auto _ : state) {
    GemmNNScalar(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    std::memset(c.data(), 0, sizeof(float) * static_cast<size_t>(n * n));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNNScalar)->Arg(128)->Arg(256);

void BM_GemmNNFusedBiasGelu(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor bias = Tensor::Randn({n}, 1.0f, &rng);
  Tensor c = Tensor::Zeros({n, n});
  for (auto _ : state) {
    // GemmNNEx overwrites but accumulates the product into C internally, so
    // the same re-zero discipline applies.
    GemmNNEx(a.data(), b.data(), bias.data(), c.data(), n, n, n,
             GemmEpilogue::kBiasGelu);
    benchmark::DoNotOptimize(c.data());
    state.PauseTiming();
    std::memset(c.data(), 0, sizeof(float) * static_cast<size_t>(n * n));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNNFusedBiasGelu)->Arg(128)->Arg(256);

void BM_Softmax(benchmark::State& state) {
  Rng rng(2);
  Tensor x = Tensor::Randn({64, state.range(0)}, 1.0f, &rng);
  for (auto _ : state) {
    NoGradGuard guard;
    Tensor y = Softmax(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(64)->Arg(512);

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(3);
  Tensor x = Tensor::Randn({64, state.range(0)}, 1.0f, &rng);
  Tensor gamma = Tensor::Full({state.range(0)}, 1.0f);
  Tensor beta = Tensor::Zeros({state.range(0)});
  for (auto _ : state) {
    NoGradGuard guard;
    Tensor y = LayerNorm(x, gamma, beta);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LayerNorm)->Arg(64)->Arg(256);

// Audited for the accumulation bug fixed in BM_GemmNN above: clean — the
// forward allocates fresh output tensors every iteration (MatMul writes into
// newly zeroed buffers), so nothing carries across iterations.
void BM_AttentionForward(benchmark::State& state) {
  const int64_t seq_len = state.range(0);
  Rng rng(4);
  MultiHeadAttention mha(64, 4, 0.0f, &rng);
  mha.SetTraining(false);
  Tensor x = Tensor::Randn({4, seq_len, 64}, 1.0f, &rng);
  for (auto _ : state) {
    NoGradGuard guard;
    Tensor y = mha.Forward(x, x, x, Tensor(), &rng);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AttentionForward)->Arg(32)->Arg(64)->Arg(128);

// Audited: gradients *do* accumulate across Backward() calls, but the loop
// already calls ZeroGrad() every iteration, so the training step is steady
// state.
void BM_EncoderTrainStep(benchmark::State& state) {
  Rng rng(5);
  TransformerConfig config;
  config.vocab_size = 500;
  config.d_model = 64;
  config.num_heads = 4;
  config.num_encoder_layers = 2;
  config.ffn_dim = 128;
  config.max_seq_len = 64;
  config.dropout = 0.0f;
  TransformerEncoderModel model(config, &rng);
  std::vector<std::vector<int32_t>> seqs;
  for (int b = 0; b < 8; ++b) {
    std::vector<int32_t> seq;
    for (int t = 0; t < 48; ++t) {
      seq.push_back(static_cast<int32_t>(10 + rng.UniformInt(400)));
    }
    seqs.push_back(seq);
  }
  TokenBatch batch = TokenBatch::Pack(seqs, 0);
  for (auto _ : state) {
    Tensor states = model.Encode(batch, &rng);
    Tensor loss = Mean(Mul(states, states));
    loss.Backward();
    model.ZeroGrad();
  }
}
BENCHMARK(BM_EncoderTrainStep);

void BM_Tokenize(benchmark::State& state) {
  const std::string text =
      "apple iphone 10 pro 64gb, 5.8-inch retina display, released 2017, "
      "costs 999.99 dollars";
  for (auto _ : state) {
    auto tokens = Tokenizer::Tokenize(text);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_Tokenize);

void BM_Levenshtein(benchmark::State& state) {
  const std::string a = "apple iphone 10 pro max 256gb silver";
  const std::string b = "aple iphonee x pro 256 gb silver edition";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_QGramJaccard(benchmark::State& state) {
  const std::string a = "apple iphone 10 pro max 256gb silver";
  const std::string b = "aple iphonee x pro 256 gb silver edition";
  for (auto _ : state) {
    benchmark::DoNotOptimize(QGramJaccard(a, b));
  }
}
BENCHMARK(BM_QGramJaccard);

// Every labeled pair of one generated ER benchmark per iteration; the items
// rate is pairs per second.
void BM_PairFeatures(benchmark::State& state) {
  ProductUniverse universe(200, 11);
  auto suite = DefaultBenchmarkSuite(0.5);
  ErBenchmark bench = GenerateErBenchmark(universe, suite[0]);
  for (auto _ : state) {
    for (const LabeledPair& pair : bench.pairs) {
      auto features =
          PairFeatures(bench.table_a.schema(), bench.table_a.row(pair.a),
                       bench.table_b.schema(), bench.table_b.row(pair.b));
      benchmark::DoNotOptimize(features);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(bench.pairs.size()));
}
BENCHMARK(BM_PairFeatures);

void BM_Blocking(benchmark::State& state) {
  ProductUniverse universe(200, 11);
  auto suite = DefaultBenchmarkSuite(0.5);
  ErBenchmark bench = GenerateErBenchmark(universe, suite[2]);
  Blocker blocker;
  for (auto _ : state) {
    auto candidates =
        blocker.GenerateCandidates(bench.table_a, bench.table_b);
    benchmark::DoNotOptimize(candidates);
  }
  state.SetItemsProcessed(state.iterations() * bench.table_a.NumRows() *
                          bench.table_b.NumRows());
}
BENCHMARK(BM_Blocking);

// ---- Self-timed scalar-vs-SIMD comparison (--selftest / --json-out) --------

struct GemmComparison {
  int64_t n = 0;
  double scalar_gflops = 0.0;
  double simd_gflops = 0.0;
  double speedup = 0.0;
  float max_abs_diff = 0.0f;
};

// Times fn(c) over `reps` runs (re-zeroing c outside the timed region) and
// returns the best GFLOP/s — best-of, not mean, to shrug off scheduler noise.
template <typename Fn>
double BestGflops(Fn&& fn, float* c, int64_t n, int reps) {
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  double best_seconds = 1e30;
  for (int r = 0; r < reps; ++r) {
    std::memset(c, 0, sizeof(float) * static_cast<size_t>(n * n));
    const auto start = std::chrono::steady_clock::now();
    fn(c);
    const auto stop = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(stop - start).count();
    if (s < best_seconds) best_seconds = s;
  }
  return flops / best_seconds / 1e9;
}

GemmComparison CompareGemmAtSize(int64_t n, int reps) {
  Rng rng(9000 + n);
  Tensor a = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor b = Tensor::Randn({n, n}, 1.0f, &rng);
  Tensor c = Tensor::Zeros({n, n});
  Tensor c_ref = Tensor::Zeros({n, n});

  GemmComparison result;
  result.n = n;
  result.scalar_gflops = BestGflops(
      [&](float* out) { GemmNNScalar(a.data(), b.data(), out, n, n, n); },
      c_ref.data(), n, reps);
  result.simd_gflops = BestGflops(
      [&](float* out) { GemmNN(a.data(), b.data(), out, n, n, n); }, c.data(),
      n, reps);
  result.speedup = result.simd_gflops / result.scalar_gflops;

  // The final rep's outputs are still in c / c_ref: compare them.
  const float* dispatched = c.data();
  const float* reference = c_ref.data();
  for (int64_t i = 0; i < n * n; ++i) {
    result.max_abs_diff =
        std::max(result.max_abs_diff, std::fabs(dispatched[i] - reference[i]));
  }
  return result;
}

// ---- Inference attention vs the composed graph (--selftest / --json-out) ---

struct AttentionComparison {
  int64_t batch = 0;
  int64_t len = 0;
  double composed_ms = 0.0;
  double inference_ms = 0.0;
  double speedup = 0.0;
  float max_abs_diff = 0.0f;
};

// The rptbench layer-replay shapes [batch, len] (encode-mix, bulk-clean and
// a small clean-http batch), all keys valid, at D=64 and H=4.
constexpr int64_t kAttentionShapes[3][2] = {{16, 36}, {16, 26}, {3, 25}};

// Wall time of fn() in milliseconds.
template <typename Fn>
double TimeMs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

// One self-attention call at [batch, len, 64] two ways: with autograd on
// (the parameters require grad, so Forward runs the composed graph) and
// under NoGradGuard (the inference path). Each is timed in runs of 8 warm
// calls, the runs alternate `rounds` times so both sides see the same
// machine noise, and each side keeps its best call.
AttentionComparison CompareAttention(int64_t batch, int64_t len, int rounds) {
  Rng rng(9100 + batch * len);
  MultiHeadAttention mha(64, 4, 0.0f, &rng);
  mha.SetTraining(false);
  Tensor x = Tensor::Randn({batch, len, 64}, 1.0f, &rng);
  const std::vector<uint8_t> valid(static_cast<size_t>(batch * len), 1);
  Tensor bias = BuildAttentionBias(batch, 4, len, len, valid, false);

  AttentionComparison result;
  result.batch = batch;
  result.len = len;
  result.composed_ms = result.inference_ms = 1e30;
  Tensor composed, inference;
  constexpr int kRun = 8;
  for (int round = 0; round < rounds; ++round) {
    for (int r = 0; r < kRun; ++r) {
      result.composed_ms = std::min(
          result.composed_ms,
          TimeMs([&] { composed = mha.Forward(x, x, x, bias, &rng); }));
    }
    NoGradGuard no_grad;
    for (int r = 0; r < kRun; ++r) {
      result.inference_ms = std::min(
          result.inference_ms,
          TimeMs([&] { inference = mha.Forward(x, x, x, bias, &rng); }));
    }
  }
  result.speedup = result.composed_ms / result.inference_ms;
  for (int64_t i = 0; i < composed.numel(); ++i) {
    result.max_abs_diff = std::max(
        result.max_abs_diff, std::fabs(composed.at(i) - inference.at(i)));
  }
  return result;
}

// ---- Pooled encode vs the full encode (--selftest / --json-out) ------------

struct PooledEncodeComparison {
  int64_t batch = 0;
  int64_t len = 0;
  double full_ms = 0.0;
  double pooled_ms = 0.0;
  double speedup = 0.0;
  float max_abs_diff = 0.0f;
};

// The matcher's batch shape: 16 pairs padded to 64 tokens.
constexpr int64_t kPooledBatch = 16;
constexpr int64_t kPooledLen = 64;

// EncodePooled (the [CLS]-only last layer) against the full encode sliced
// to position 0, on the matcher's encoder shape (D=64, H=4, 2 layers, FFN
// 128) in eval mode under NoGradGuard, with ragged lengths 31..64. Timed
// like CompareAttention: alternating runs of 8 warm calls, best call each.
PooledEncodeComparison ComparePooledEncode(int rounds) {
  Rng rng(9200);
  TransformerConfig config;
  config.vocab_size = 500;
  config.d_model = 64;
  config.num_heads = 4;
  config.num_encoder_layers = 2;
  config.ffn_dim = 128;
  config.max_seq_len = kPooledLen;
  TransformerEncoderModel model(config, &rng);
  model.SetTraining(false);
  std::vector<std::vector<int32_t>> seqs;
  for (int64_t b = 0; b < kPooledBatch; ++b) {
    std::vector<int32_t> seq(static_cast<size_t>(kPooledLen - 3 * (b % 12)));
    for (auto& id : seq) id = static_cast<int32_t>(10 + rng.UniformInt(400));
    seqs.push_back(std::move(seq));
  }
  const TokenBatch batch = TokenBatch::Pack(seqs, 0);

  PooledEncodeComparison result;
  result.batch = batch.batch;
  result.len = batch.len;
  result.full_ms = result.pooled_ms = 1e30;
  NoGradGuard no_grad;
  Tensor full, pooled;
  constexpr int kRun = 8;
  for (int round = 0; round < rounds; ++round) {
    for (int r = 0; r < kRun; ++r) {
      result.full_ms = std::min(result.full_ms, TimeMs([&] {
        full = Slice(model.Encode(batch, &rng), 1, 0, 1);
      }));
    }
    for (int r = 0; r < kRun; ++r) {
      result.pooled_ms = std::min(result.pooled_ms, TimeMs([&] {
        pooled = model.EncodePooled(batch, &rng);
      }));
    }
  }
  result.speedup = result.full_ms / result.pooled_ms;
  for (int64_t i = 0; i < full.numel(); ++i) {
    result.max_abs_diff =
        std::max(result.max_abs_diff, std::fabs(full.at(i) - pooled.at(i)));
  }
  return result;
}

// Correctness + speed gate. With AVX2 active the dispatched GEMM must agree
// with scalar to 1e-4 and must not be slower; with scalar dispatch the
// comparison is scalar-vs-scalar and passes trivially (diff 0, speedup ~1).
int RunSelftest() {
  const TensorBackend backend = ActiveTensorBackend();
  const bool simd = backend == TensorBackend::kAvx2;
  std::printf("micro_kernels selftest: backend=%s\n",
              TensorBackendName(backend));
  bool ok = true;
  for (int64_t n : {64, 256}) {
    GemmComparison cmp = CompareGemmAtSize(n, /*reps=*/3);
    std::printf(
        "  n=%-4lld scalar=%7.2f GFLOP/s  dispatched=%7.2f GFLOP/s  "
        "speedup=%.2fx  max_abs_diff=%.3g\n",
        static_cast<long long>(cmp.n), cmp.scalar_gflops, cmp.simd_gflops,
        cmp.speedup, static_cast<double>(cmp.max_abs_diff));
    if (cmp.max_abs_diff > 1e-4f) {
      std::printf("  FAIL: max_abs_diff %.3g > 1e-4 at n=%lld\n",
                  static_cast<double>(cmp.max_abs_diff),
                  static_cast<long long>(n));
      ok = false;
    }
    // Speed gate only when SIMD is actually dispatched; 0.9 headroom so a
    // noisy shared runner does not flake the build.
    if (simd && n >= 256 && cmp.speedup < 0.9) {
      std::printf("  FAIL: SIMD GEMM slower than scalar (%.2fx) at n=%lld\n",
                  cmp.speedup, static_cast<long long>(n));
      ok = false;
    }
  }
  // Inference attention must agree with the composed graph to 1e-4 and must
  // not be slower than it, on either backend.
  for (const auto& shape : kAttentionShapes) {
    AttentionComparison cmp =
        CompareAttention(shape[0], shape[1], /*rounds=*/5);
    std::printf(
        "  attention [%lld,%lld,64] H=4: composed=%.3f ms  inference=%.3f ms  "
        "speedup=%.2fx  max_abs_diff=%.3g\n",
        static_cast<long long>(cmp.batch), static_cast<long long>(cmp.len),
        cmp.composed_ms, cmp.inference_ms, cmp.speedup,
        static_cast<double>(cmp.max_abs_diff));
    if (cmp.max_abs_diff > 1e-4f) {
      std::printf("  FAIL: attention max_abs_diff %.3g > 1e-4\n",
                  static_cast<double>(cmp.max_abs_diff));
      ok = false;
    }
    if (cmp.speedup < 1.0) {
      std::printf("  FAIL: inference attention slower than composed (%.2fx)\n",
                  cmp.speedup);
      ok = false;
    }
  }
  // The pooled encode must agree with the full one to 1e-4 (bitwise under
  // scalar dispatch) and must not be slower than it.
  const PooledEncodeComparison pooled = ComparePooledEncode(/*rounds=*/5);
  std::printf(
      "  encode_pooled [%lld,%lld] D=64 H=4 L=2: full=%.3f ms  "
      "pooled=%.3f ms  speedup=%.2fx  max_abs_diff=%.3g\n",
      static_cast<long long>(pooled.batch),
      static_cast<long long>(pooled.len), pooled.full_ms, pooled.pooled_ms,
      pooled.speedup, static_cast<double>(pooled.max_abs_diff));
  if (pooled.max_abs_diff > 1e-4f) {
    std::printf("  FAIL: encode_pooled max_abs_diff %.3g > 1e-4\n",
                static_cast<double>(pooled.max_abs_diff));
    ok = false;
  }
  if (pooled.speedup < 1.0) {
    std::printf("  FAIL: pooled encode slower than the full one (%.2fx)\n",
                pooled.speedup);
    ok = false;
  }
  std::printf("micro_kernels selftest: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

int WriteJsonReport(const std::string& path) {
  const TensorBackend backend = ActiveTensorBackend();
  std::vector<GemmComparison> rows;
  for (int64_t n : {64, 128, 256, 512}) {
    rows.push_back(CompareGemmAtSize(n, /*reps=*/3));
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  out << "{\n  \"backend\": \"" << TensorBackendName(backend) << "\",\n"
      << "  \"built_with_avx2\": " << (BuiltWithAvx2() ? "true" : "false")
      << ",\n"
      << "  \"cpu_avx2_fma\": " << (CpuSupportsAvx2Fma() ? "true" : "false")
      << ",\n  \"gemm_nn_square\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const GemmComparison& r = rows[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"n\": %lld, \"scalar_gflops\": %.3f, "
                  "\"simd_gflops\": %.3f, \"speedup\": %.3f, "
                  "\"max_abs_diff\": %.6g}%s\n",
                  static_cast<long long>(r.n), r.scalar_gflops, r.simd_gflops,
                  r.speedup, static_cast<double>(r.max_abs_diff),
                  i + 1 < rows.size() ? "," : "");
    out << buf;
    std::printf("%s", buf);
  }
  out << "  ],\n  \"attention_inference\": [\n";
  const size_t shapes = std::size(kAttentionShapes);
  for (size_t i = 0; i < shapes; ++i) {
    const AttentionComparison r = CompareAttention(
        kAttentionShapes[i][0], kAttentionShapes[i][1], /*rounds=*/5);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"batch\": %lld, \"len\": %lld, \"composed_ms\": %.4f, "
                  "\"inference_ms\": %.4f, \"speedup\": %.3f, "
                  "\"max_abs_diff\": %.6g}%s\n",
                  static_cast<long long>(r.batch),
                  static_cast<long long>(r.len), r.composed_ms,
                  r.inference_ms, r.speedup,
                  static_cast<double>(r.max_abs_diff),
                  i + 1 < shapes ? "," : "");
    out << buf;
    std::printf("%s", buf);
  }
  const PooledEncodeComparison pooled = ComparePooledEncode(/*rounds=*/5);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"encode_pooled\": {\"batch\": %lld, \"len\": %lld, "
                "\"full_ms\": %.4f, \"pooled_ms\": %.4f, \"speedup\": %.3f, "
                "\"max_abs_diff\": %.6g}\n",
                static_cast<long long>(pooled.batch),
                static_cast<long long>(pooled.len), pooled.full_ms,
                pooled.pooled_ms, pooled.speedup,
                static_cast<double>(pooled.max_abs_diff));
  out << "  ],\n" << buf << "}\n";
  std::printf("%s", buf);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace rpt

// Custom main: tolerate the suite-wide --quick flag (mapped to a short
// minimum time) so `for b in build/bench/*; do $b --quick; done` works, and
// handle the --selftest / --json-out modes before google-benchmark sees the
// arguments.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool quick = false;
  bool selftest = false;
  std::string json_path;
  for (int i = 0; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg.rfind("--json-out=", 0) == 0) {
      json_path = arg.substr(std::strlen("--json-out="));
    } else {
      args.push_back(argv[i]);
    }
  }
  if (selftest) return rpt::RunSelftest();
  if (!json_path.empty()) return rpt::WriteJsonReport(json_path);
  static char min_time_flag[] = "--benchmark_min_time=0.05";
  if (quick) args.push_back(min_time_flag);
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
