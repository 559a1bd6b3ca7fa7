// Incremental-decode benchmark: per-step decoder cost vs. prefix length,
// cached (DecodeStep over a DecoderState) against uncached (a full
// DecodeLogits pass over the whole prefix, which is what the pre-KV-cache
// generators paid at every step).
//
// Two measurements:
//   1. Per-step cost at prefix lengths {8, 16, 32, 64}: the cached step
//      should stay nearly flat (it copies nothing already cached; only its
//      attention reads of the t cached keys/values grow with the prefix)
//      while the uncached pass grows linearly.
//   2. A full 64-token greedy generation: the KV-cached GenerateGreedy vs.
//      an uncached reference loop reimplementing the pre-PR algorithm.
//      Target: >=3x total speedup, with bit-identical output.
//
// `--smoke` shrinks everything for CI (ctest registers decode_bench_smoke).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "eval/report.h"
#include "nn/transformer.h"
#include "util/rng.h"

namespace {

using rpt::DecoderState;
using rpt::ReportTable;
using rpt::Rng;
using rpt::Seq2SeqTransformer;
using rpt::Tensor;
using rpt::TokenBatch;
using rpt::TransformerConfig;
using std::chrono::steady_clock;

double MsSince(steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(steady_clock::now() -
                                                   start)
      .count();
}

TransformerConfig BenchConfig() {
  TransformerConfig config;
  config.vocab_size = 64;
  config.d_model = 64;
  config.num_heads = 4;
  config.num_encoder_layers = 2;
  config.num_decoder_layers = 2;
  config.ffn_dim = 128;
  config.max_seq_len = 128;
  config.dropout = 0.0f;
  return config;
}

TokenBatch MakeSource(int64_t batch, int64_t len, int64_t vocab, Rng* rng) {
  std::vector<std::vector<int32_t>> seqs(static_cast<size_t>(batch));
  for (auto& s : seqs) {
    s.resize(static_cast<size_t>(len));
    // Skip ids 0/1 so BOS never appears in the source.
    for (auto& id : s) {
      id = static_cast<int32_t>(rng->UniformRange(2, vocab - 1));
    }
  }
  return TokenBatch::Pack(seqs, /*pad_id=*/0);
}

/// The pre-PR greedy algorithm: a full DecodeLogits pass over the whole
/// prefix at every step (no caches, no row compaction needed here because
/// eos_id = -1 keeps every row active).
std::vector<std::vector<int32_t>> UncachedGreedy(
    const Seq2SeqTransformer& model, const TokenBatch& src, int32_t bos_id,
    int64_t max_len, Rng* rng) {
  Tensor memory = model.Encode(src, rng);
  const int64_t v = model.config().vocab_size;
  std::vector<std::vector<int32_t>> generated(
      static_cast<size_t>(src.batch), std::vector<int32_t>{bos_id});
  for (int64_t step = 0; step < max_len; ++step) {
    TokenBatch tgt = TokenBatch::Pack(generated, /*pad_id=*/0);
    Tensor logits = model.DecodeLogits(tgt, memory, src.valid, rng);
    for (int64_t b = 0; b < src.batch; ++b) {
      const int64_t t = static_cast<int64_t>(generated[b].size()) - 1;
      const float* row = logits.data() + (b * tgt.len + t) * v;
      int32_t best = 0;
      for (int64_t c = 1; c < v; ++c) {
        if (row[c] > row[best]) best = static_cast<int32_t>(c);
      }
      generated[static_cast<size_t>(b)].push_back(best);
    }
  }
  for (auto& seq : generated) seq.erase(seq.begin());
  return generated;
}

/// Advances a fresh DecoderState to `prefix_len` cached positions and
/// returns it, along with the prefix token ids in `*prefix`.
DecoderState AdvanceTo(const Seq2SeqTransformer& model, const Tensor& memory,
                       const TokenBatch& src, int64_t prefix_len,
                       int32_t bos_id, std::vector<std::vector<int32_t>>* prefix,
                       Rng* rng) {
  DecoderState state = model.BeginDecode(memory, src.valid);
  prefix->assign(static_cast<size_t>(src.batch),
                 std::vector<int32_t>{bos_id});
  const int64_t v = model.config().vocab_size;
  for (int64_t step = 0; step + 1 < prefix_len; ++step) {
    std::vector<int32_t> last;
    for (const auto& p : *prefix) last.push_back(p.back());
    Tensor logits = model.DecodeStep(last, &state, rng);
    for (int64_t b = 0; b < src.batch; ++b) {
      const float* row = logits.data() + b * v;
      int32_t best = 0;
      for (int64_t c = 1; c < v; ++c) {
        if (row[c] > row[best]) best = static_cast<int32_t>(c);
      }
      (*prefix)[static_cast<size_t>(b)].push_back(best);
    }
  }
  return state;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const TransformerConfig config = BenchConfig();
  Rng rng(42);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  rpt::NoGradGuard no_grad;  // inference-only: no autograd graphs

  const int64_t batch = 4;
  const int64_t src_len = smoke ? 8 : 16;
  const int64_t gen_len = smoke ? 8 : 64;
  const int reps = smoke ? 2 : 20;
  const int32_t bos_id = 1;
  // eos_id = -1: no token can match, so every row decodes the full
  // max_len — both paths do identical amounts of work.
  const int32_t no_eos = -1;

  Rng data_rng(7);
  const TokenBatch src = MakeSource(batch, src_len, config.vocab_size,
                                    &data_rng);
  Tensor memory = model.Encode(src, &rng);

  rpt::PrintBanner("per-step decode cost vs prefix length");
  std::printf(
      "batch=%lld, d_model=%lld, %lld decoder layers; times are one decode "
      "step, averaged over %d reps\n\n",
      static_cast<long long>(batch), static_cast<long long>(config.d_model),
      static_cast<long long>(config.num_decoder_layers), reps);

  ReportTable steps({"prefix length", "cached step (ms)",
                     "uncached pass (ms)", "ratio"});
  const std::vector<int64_t> prefixes =
      smoke ? std::vector<int64_t>{4, 8} : std::vector<int64_t>{8, 16, 32, 64};
  for (int64_t prefix_len : prefixes) {
    std::vector<std::vector<int32_t>> prefix;
    DecoderState state =
        AdvanceTo(model, memory, src, prefix_len, bos_id, &prefix, &rng);
    std::vector<int32_t> last;
    for (const auto& p : prefix) last.push_back(p.back());

    // Cached: one DecodeStep against prefix_len-1 cached positions. The
    // state is copied each rep so the cache length stays fixed.
    double cached_ms = 0;
    for (int r = 0; r < reps; ++r) {
      DecoderState fresh = state;
      const auto start = steady_clock::now();
      model.DecodeStep(last, &fresh, &rng);
      cached_ms += MsSince(start);
    }
    cached_ms /= reps;

    // Uncached: the full-prefix DecodeLogits pass the old generator ran to
    // obtain the same step's logits.
    TokenBatch tgt = TokenBatch::Pack(prefix, /*pad_id=*/0);
    double uncached_ms = 0;
    for (int r = 0; r < reps; ++r) {
      const auto start = steady_clock::now();
      model.DecodeLogits(tgt, memory, src.valid, &rng);
      uncached_ms += MsSince(start);
    }
    uncached_ms /= reps;

    steps.AddRow({std::to_string(prefix_len), rpt::Fixed(cached_ms, 3),
                  rpt::Fixed(uncached_ms, 3),
                  rpt::Fixed(uncached_ms / cached_ms, 2)});
  }
  steps.Print();

  rpt::PrintBanner("full generation: cached vs uncached greedy");
  const int gen_reps = smoke ? 1 : 3;
  double cached_total = 0, uncached_total = 0;
  std::vector<std::vector<int32_t>> cached_out, uncached_out;
  for (int r = 0; r < gen_reps; ++r) {
    auto start = steady_clock::now();
    cached_out = model.GenerateGreedy(src, bos_id, no_eos, gen_len, &rng);
    cached_total += MsSince(start);
    start = steady_clock::now();
    uncached_out = UncachedGreedy(model, src, bos_id, gen_len, &rng);
    uncached_total += MsSince(start);
  }
  const bool identical = cached_out == uncached_out;
  const double speedup = uncached_total / cached_total;
  ReportTable gen({"path", "total (ms)", "speedup"});
  gen.AddRow({"uncached (pre-PR algorithm)",
              rpt::Fixed(uncached_total / gen_reps, 2), "1.00"});
  gen.AddRow({"KV-cached GenerateGreedy", rpt::Fixed(cached_total / gen_reps, 2),
              rpt::Fixed(speedup, 2)});
  gen.Print();
  std::printf("\noutputs bit-identical: %s\n", identical ? "yes" : "NO");

  if (!identical) {
    std::printf("FAIL: cached and uncached outputs differ\n");
    return 1;
  }
  if (speedup >= 3.0) {
    std::printf("OK: KV-cached decode achieved >=3x on %lld-token generation\n",
                static_cast<long long>(gen_len));
  } else if (smoke) {
    // Short smoke prefixes don't amortize; identity is the smoke criterion.
    std::printf("note: smoke run, speedup target not enforced\n");
  } else {
    std::printf("WARNING: speedup %.2fx below the 3x target\n", speedup);
  }
  return 0;
}
