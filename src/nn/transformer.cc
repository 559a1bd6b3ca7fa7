#include "nn/transformer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "profile/perf_hooks.h"
#include "util/logging.h"

namespace rpt {

// ---- TokenBatch --------------------------------------------------------------

TokenBatch TokenBatch::Pack(
    const std::vector<std::vector<int32_t>>& seqs, int32_t pad_id,
    const std::vector<std::vector<int32_t>>* col_seqs,
    const std::vector<std::vector<int32_t>>* type_seqs) {
  TokenBatch out;
  out.batch = static_cast<int64_t>(seqs.size());
  out.len = 1;  // avoid zero-length tensors for empty batches/sequences
  for (const auto& s : seqs) {
    out.len = std::max<int64_t>(out.len, static_cast<int64_t>(s.size()));
  }
  const size_t total = static_cast<size_t>(out.batch * out.len);
  out.ids.assign(total, pad_id);
  out.valid.assign(total, 0);
  if (col_seqs != nullptr) out.col_ids.assign(total, 0);
  if (type_seqs != nullptr) out.type_ids.assign(total, 0);
  for (size_t b = 0; b < seqs.size(); ++b) {
    const auto& s = seqs[b];
    if (col_seqs != nullptr) {
      RPT_CHECK_EQ((*col_seqs)[b].size(), s.size());
    }
    if (type_seqs != nullptr) {
      RPT_CHECK_EQ((*type_seqs)[b].size(), s.size());
    }
    for (size_t t = 0; t < s.size(); ++t) {
      const size_t idx = b * static_cast<size_t>(out.len) + t;
      out.ids[idx] = s[t];
      out.valid[idx] = 1;
      if (col_seqs != nullptr) out.col_ids[idx] = (*col_seqs)[b][t];
      if (type_seqs != nullptr) out.type_ids[idx] = (*type_seqs)[b][t];
    }
  }
  return out;
}

// ---- FeedForward --------------------------------------------------------------

FeedForward::FeedForward(int64_t d_model, int64_t ffn_dim, float dropout,
                         Rng* rng)
    : fc1_(d_model, ffn_dim, rng), fc2_(ffn_dim, d_model, rng),
      dropout_(dropout) {
  RegisterModule("fc1", &fc1_);
  RegisterModule("fc2", &fc2_);
  RegisterModule("dropout", &dropout_);
}

Tensor FeedForward::Forward(const Tensor& x, Rng* rng) const {
  // Fused bias+GELU epilogue in inference; exact composition under autograd.
  Tensor h = fc1_.ForwardAct(x, FusedAct::kGelu);
  h = dropout_.Forward(h, rng);
  return fc2_.Forward(h);
}

// ---- Encoder layer -------------------------------------------------------------

TransformerEncoderLayer::TransformerEncoderLayer(
    const TransformerConfig& config, Rng* rng)
    : ln1_(config.d_model),
      self_attn_(config.d_model, config.num_heads, config.dropout, rng),
      ln2_(config.d_model),
      ffn_(config.d_model, config.ffn_dim, config.dropout, rng),
      dropout_(config.dropout) {
  RegisterModule("ln1", &ln1_);
  RegisterModule("self_attn", &self_attn_);
  RegisterModule("ln2", &ln2_);
  RegisterModule("ffn", &ffn_);
  RegisterModule("dropout", &dropout_);
}

Tensor TransformerEncoderLayer::Forward(const Tensor& x, const Tensor& bias,
                                        Rng* rng) const {
  return ForwardRows(x, x.dim(1), bias, rng);
}

Tensor TransformerEncoderLayer::ForwardRows(const Tensor& x, int64_t rows,
                                            const Tensor& bias,
                                            Rng* rng) const {
  RPT_CHECK(rows >= 1 && rows <= x.dim(1)) << "rows out of range: " << rows;
  const bool all = rows == x.dim(1);
  Tensor normed = ln1_.Forward(x);
  const Tensor query = all ? normed : Slice(normed, 1, 0, rows);
  const Tensor residual = all ? x : Slice(x, 1, 0, rows);
  Tensor attn = self_attn_.Forward(query, normed, normed, bias, rng);
  Tensor h = Add(residual, dropout_.Forward(attn, rng));
  Tensor ff = ffn_.Forward(ln2_.Forward(h), rng);
  return Add(h, dropout_.Forward(ff, rng));
}

// ---- Decoder layer -------------------------------------------------------------

TransformerDecoderLayer::TransformerDecoderLayer(
    const TransformerConfig& config, Rng* rng)
    : ln1_(config.d_model),
      self_attn_(config.d_model, config.num_heads, config.dropout, rng),
      ln2_(config.d_model),
      cross_attn_(config.d_model, config.num_heads, config.dropout, rng),
      ln3_(config.d_model),
      ffn_(config.d_model, config.ffn_dim, config.dropout, rng),
      dropout_(config.dropout) {
  RegisterModule("ln1", &ln1_);
  RegisterModule("self_attn", &self_attn_);
  RegisterModule("ln2", &ln2_);
  RegisterModule("cross_attn", &cross_attn_);
  RegisterModule("ln3", &ln3_);
  RegisterModule("ffn", &ffn_);
  RegisterModule("dropout", &dropout_);
}

Tensor TransformerDecoderLayer::Forward(const Tensor& x,
                                        const Tensor& self_bias,
                                        const Tensor& memory,
                                        const Tensor& cross_bias,
                                        Rng* rng) const {
  Tensor normed = ln1_.Forward(x);
  Tensor self = self_attn_.Forward(normed, normed, normed, self_bias, rng);
  Tensor h = Add(x, dropout_.Forward(self, rng));

  Tensor normed2 = ln2_.Forward(h);
  Tensor cross =
      cross_attn_.Forward(normed2, memory, memory, cross_bias, rng);
  h = Add(h, dropout_.Forward(cross, rng));

  Tensor ff = ffn_.Forward(ln3_.Forward(h), rng);
  return Add(h, dropout_.Forward(ff, rng));
}

Tensor TransformerDecoderLayer::ForwardStep(const Tensor& x,
                                            const Tensor& cross_bias,
                                            KVCache* self_cache,
                                            KVCache* cross_cache,
                                            Rng* rng) const {
  // The newest position attends to all cached self-attention keys (the
  // causal mask's last row is all-zero) so no self bias is needed.
  Tensor normed = ln1_.Forward(x);
  Tensor self = self_attn_.Forward(normed, normed, normed, Tensor(), rng,
                                   self_cache);
  Tensor h = Add(x, dropout_.Forward(self, rng));

  Tensor normed2 = ln2_.Forward(h);
  Tensor cross = cross_attn_.Forward(normed2, Tensor(), Tensor(), cross_bias,
                                     rng, cross_cache);
  h = Add(h, dropout_.Forward(cross, rng));

  Tensor ff = ffn_.Forward(ln3_.Forward(h), rng);
  return Add(h, dropout_.Forward(ff, rng));
}

void TransformerDecoderLayer::PrecomputeCross(const Tensor& memory,
                                              KVCache* cache) const {
  RPT_CHECK(cache != nullptr);
  RPT_CHECK(cache->empty()) << "cross-attention cache already filled";
  cross_attn_.AppendKV(memory, memory, cache);
}

// ---- InputEmbedding -------------------------------------------------------------

InputEmbedding::InputEmbedding(const TransformerConfig& config, Rng* rng)
    : config_(config),
      token_(config.vocab_size, config.d_model, rng),
      position_(config.max_seq_len, config.d_model, rng),
      dropout_(config.dropout) {
  RegisterModule("token", &token_);
  RegisterModule("position", &position_);
  if (config.use_column_embeddings) {
    column_ = std::make_unique<Embedding>(config.num_columns, config.d_model,
                                          rng);
    RegisterModule("column", column_.get());
  }
  if (config.use_type_embeddings) {
    type_ = std::make_unique<Embedding>(config.num_token_types,
                                        config.d_model, rng);
    RegisterModule("type", type_.get());
  }
  RegisterModule("dropout", &dropout_);
}

Tensor InputEmbedding::Forward(const TokenBatch& batch, Rng* rng,
                               int64_t position_offset) const {
  RPT_CHECK_GE(position_offset, 0);
  RPT_CHECK_LE(position_offset + batch.len, config_.max_seq_len)
      << "sequence length " << (position_offset + batch.len)
      << " exceeds max_seq_len";
  Tensor x = token_.Forward(batch.ids);  // [B*T, D]

  std::vector<int32_t> pos_ids(batch.ids.size());
  for (int64_t b = 0; b < batch.batch; ++b) {
    for (int64_t t = 0; t < batch.len; ++t) {
      pos_ids[static_cast<size_t>(b * batch.len + t)] =
          static_cast<int32_t>(position_offset + t);
    }
  }
  x = Add(x, position_.Forward(pos_ids));

  if (column_ != nullptr && !batch.col_ids.empty()) {
    // Clamp column ids into the configured table.
    std::vector<int32_t> col(batch.col_ids);
    const int32_t max_col = static_cast<int32_t>(config_.num_columns - 1);
    for (auto& c : col) c = std::min(std::max(c, 0), max_col);
    x = Add(x, column_->Forward(col));
  }
  if (type_ != nullptr && !batch.type_ids.empty()) {
    x = Add(x, type_->Forward(batch.type_ids));
  }
  x = Reshape(x, {batch.batch, batch.len, config_.d_model});
  return dropout_.Forward(x, rng);
}

// ---- TransformerEncoderModel -------------------------------------------------------

TransformerEncoderModel::TransformerEncoderModel(
    const TransformerConfig& config, Rng* rng)
    : config_(config), embedding_(config, rng), final_ln_(config.d_model) {
  RPT_CHECK_GT(config.vocab_size, 0);
  RegisterModule("embedding", &embedding_);
  layers_.reserve(static_cast<size_t>(config.num_encoder_layers));
  for (int64_t i = 0; i < config.num_encoder_layers; ++i) {
    layers_.push_back(
        std::make_unique<TransformerEncoderLayer>(config, rng));
    RegisterModule("layer" + std::to_string(i), layers_.back().get());
  }
  RegisterModule("final_ln", &final_ln_);
}

Tensor TransformerEncoderModel::Run(const TokenBatch& batch, bool cls_only,
                                    Rng* rng) const {
  ScopedStageTiming timing("nn.encode");
  Tensor x = embedding_.Forward(batch, rng);
  const size_t full_layers = layers_.size() - (cls_only ? 1 : 0);
  if (full_layers > 0) {
    const Tensor bias =
        BuildAttentionBias(batch.batch, config_.num_heads, batch.len,
                           batch.len, batch.valid, /*causal=*/false);
    for (size_t l = 0; l < full_layers; ++l) {
      x = layers_[l]->Forward(x, bias, rng);
    }
  }
  if (cls_only) {
    const Tensor cls_bias =
        BuildAttentionBias(batch.batch, config_.num_heads, /*q_len=*/1,
                           batch.len, batch.valid, /*causal=*/false);
    x = layers_.back()->ForwardRows(x, /*rows=*/1, cls_bias, rng);
  }
  return final_ln_.Forward(x);
}

Tensor TransformerEncoderModel::Encode(const TokenBatch& batch,
                                       Rng* rng) const {
  return Run(batch, /*cls_only=*/false, rng);
}

Tensor TransformerEncoderModel::EncodePooled(const TokenBatch& batch,
                                             Rng* rng) const {
  // The last layer's other rows reach the result only through a gradient
  // or the dropout draws, so only an untracked, dropout-free call drops
  // them.
  bool tracked = false;
  if (AutogradEnabled()) {
    for (const Tensor& p : Parameters()) tracked = tracked || p.requires_grad();
  }
  const bool dropout_active = training() && config_.dropout > 0.0f;
  const bool cls_only = !tracked && !dropout_active && !layers_.empty();
  Tensor first = Slice(Run(batch, cls_only, rng), 1, 0, 1);
  return Reshape(first, {batch.batch, config_.d_model});
}

// ---- Seq2SeqTransformer --------------------------------------------------------------

Seq2SeqTransformer::Seq2SeqTransformer(const TransformerConfig& config,
                                       Rng* rng)
    : config_(config),
      src_embedding_(config, rng),
      tgt_embedding_(
          [&config] {
            // The decoder sees plain token sequences: no column/type ids.
            TransformerConfig c = config;
            c.use_column_embeddings = false;
            c.use_type_embeddings = false;
            return c;
          }(),
          rng),
      encoder_ln_(config.d_model),
      decoder_ln_(config.d_model),
      lm_head_(config.d_model, config.vocab_size, rng) {
  RPT_CHECK_GT(config.vocab_size, 0);
  RegisterModule("src_embedding", &src_embedding_);
  RegisterModule("tgt_embedding", &tgt_embedding_);
  for (int64_t i = 0; i < config.num_encoder_layers; ++i) {
    encoder_layers_.push_back(
        std::make_unique<TransformerEncoderLayer>(config, rng));
    RegisterModule("enc" + std::to_string(i), encoder_layers_.back().get());
  }
  for (int64_t i = 0; i < config.num_decoder_layers; ++i) {
    decoder_layers_.push_back(
        std::make_unique<TransformerDecoderLayer>(config, rng));
    RegisterModule("dec" + std::to_string(i), decoder_layers_.back().get());
  }
  RegisterModule("encoder_ln", &encoder_ln_);
  RegisterModule("decoder_ln", &decoder_ln_);
  RegisterModule("lm_head", &lm_head_);
}

Tensor Seq2SeqTransformer::Encode(const TokenBatch& src, Rng* rng) const {
  ScopedStageTiming timing("nn.encode");
  Tensor x = src_embedding_.Forward(src, rng);
  Tensor bias = BuildAttentionBias(src.batch, config_.num_heads, src.len,
                                   src.len, src.valid, /*causal=*/false);
  for (const auto& layer : encoder_layers_) {
    x = layer->Forward(x, bias, rng);
  }
  return encoder_ln_.Forward(x);
}

Tensor Seq2SeqTransformer::DecodeLogits(
    const TokenBatch& tgt, const Tensor& memory,
    const std::vector<uint8_t>& src_valid, Rng* rng) const {
  Tensor x = tgt_embedding_.Forward(tgt, rng);
  Tensor self_bias =
      BuildAttentionBias(tgt.batch, config_.num_heads, tgt.len, tgt.len,
                         tgt.valid, /*causal=*/true);
  const int64_t src_len = memory.dim(1);
  Tensor cross_bias =
      BuildAttentionBias(tgt.batch, config_.num_heads, tgt.len, src_len,
                         src_valid, /*causal=*/false);
  for (const auto& layer : decoder_layers_) {
    x = layer->Forward(x, self_bias, memory, cross_bias, rng);
  }
  x = decoder_ln_.Forward(x);
  return lm_head_.Forward(x);  // [B, Tt, V]
}

Tensor Seq2SeqTransformer::Forward(const TokenBatch& src,
                                   const TokenBatch& tgt, Rng* rng) const {
  Tensor memory = Encode(src, rng);
  return DecodeLogits(tgt, memory, src.valid, rng);
}

namespace {

// Forces eval mode (dropout off) for the lifetime of the guard and restores
// the previous mode after. Generation must be deterministic even on a model
// left in training mode — inference-time dropout would silently corrupt
// repairs.
class EvalModeGuard {
 public:
  explicit EvalModeGuard(const Module* module)
      : module_(const_cast<Module*>(module)),
        was_training_(module->training()) {
    if (was_training_) module_->SetTraining(false);
  }
  ~EvalModeGuard() {
    if (was_training_) module_->SetTraining(true);
  }
  EvalModeGuard(const EvalModeGuard&) = delete;
  EvalModeGuard& operator=(const EvalModeGuard&) = delete;

 private:
  Module* module_;
  bool was_training_;
};

}  // namespace

void DecoderState::GatherRows(const std::vector<int64_t>& rows) {
  for (auto& cache : self_cache) cache.GatherRows(rows);
  for (auto& cache : cross_cache) cache.GatherRows(rows);
  if (!src_valid.empty()) {
    std::vector<uint8_t> next;
    next.reserve(rows.size() * static_cast<size_t>(src_len));
    for (int64_t r : rows) {
      RPT_CHECK_GE(r, 0);
      RPT_CHECK_LT(r, batch);
      next.insert(next.end(),
                  src_valid.begin() + r * src_len,
                  src_valid.begin() + (r + 1) * src_len);
    }
    src_valid = std::move(next);
  }
  batch = static_cast<int64_t>(rows.size());
}

DecoderState Seq2SeqTransformer::BeginDecode(
    const Tensor& memory, const std::vector<uint8_t>& src_valid) const {
  ScopedStageTiming timing("nn.prefill");
  NoGradGuard no_grad;
  DecoderState state;
  state.batch = memory.dim(0);
  state.src_len = memory.dim(1);
  state.src_valid = src_valid;
  if (!src_valid.empty()) {
    RPT_CHECK_EQ(static_cast<int64_t>(src_valid.size()),
                 state.batch * state.src_len);
  }
  state.self_cache.resize(decoder_layers_.size());
  state.cross_cache.resize(decoder_layers_.size());
  for (size_t l = 0; l < decoder_layers_.size(); ++l) {
    decoder_layers_[l]->PrecomputeCross(memory, &state.cross_cache[l]);
  }
  return state;
}

Tensor Seq2SeqTransformer::DecodeStep(const std::vector<int32_t>& last_tokens,
                                      DecoderState* state, Rng* rng) const {
  ScopedStageTiming timing("nn.decode_step");
  RPT_CHECK(state != nullptr);
  RPT_CHECK_EQ(static_cast<int64_t>(last_tokens.size()), state->batch);
  RPT_CHECK_LT(state->step, config_.max_seq_len)
      << "decode prefix outgrew max_seq_len";
  NoGradGuard no_grad;

  TokenBatch one;
  one.batch = state->batch;
  one.len = 1;
  one.ids = last_tokens;
  one.valid.assign(last_tokens.size(), 1);
  Tensor x = tgt_embedding_.Forward(one, rng, /*position_offset=*/state->step);

  Tensor cross_bias = BuildIncrementalAttentionBias(
      state->batch, config_.num_heads, state->src_len, state->src_valid);
  for (size_t l = 0; l < decoder_layers_.size(); ++l) {
    x = decoder_layers_[l]->ForwardStep(x, cross_bias, &state->self_cache[l],
                                        &state->cross_cache[l], rng);
  }
  x = decoder_ln_.Forward(x);
  ++state->step;
  return Reshape(lm_head_.Forward(x), {state->batch, config_.vocab_size});
}

std::vector<std::vector<int32_t>> Seq2SeqTransformer::GenerateGreedy(
    const TokenBatch& src, int32_t bos_id, int32_t eos_id, int64_t max_len,
    Rng* rng) const {
  ScopedStageTiming timing("nn.generate_greedy");
  NoGradGuard no_grad;
  EvalModeGuard eval(this);
  // The decoder prefix is 1 (BOS) + generated tokens; clamp so it can never
  // outgrow the position table.
  max_len = std::min(max_len, config_.max_seq_len - 1);
  const int64_t batch = src.batch;
  const int64_t v = config_.vocab_size;
  std::vector<std::vector<int32_t>> generated(
      static_cast<size_t>(batch), std::vector<int32_t>{bos_id});
  if (batch == 0 || max_len <= 0) {
    for (auto& seq : generated) seq.erase(seq.begin());
    return generated;
  }

  Tensor memory = Encode(src, rng);
  DecoderState state = BeginDecode(memory, src.valid);

  // Rows still decoding. When a row emits EOS it is compacted out of the
  // decode state (all caches), so later steps run the decoder over active
  // rows only — with ragged answer lengths the average decode batch shrinks
  // toward the longest answers instead of staying at `batch`.
  std::vector<int64_t> active(static_cast<size_t>(batch));
  for (int64_t b = 0; b < batch; ++b) active[static_cast<size_t>(b)] = b;

  for (int64_t step = 0; step < max_len && !active.empty(); ++step) {
    std::vector<int32_t> last;
    last.reserve(active.size());
    for (int64_t b : active) {
      last.push_back(generated[static_cast<size_t>(b)].back());
    }
    Tensor logits = DecodeStep(last, &state, rng);

    std::vector<int64_t> still_active;
    std::vector<int64_t> keep;  // positions within the current state rows
    still_active.reserve(active.size());
    for (size_t i = 0; i < active.size(); ++i) {
      const int64_t b = active[i];
      const float* row = logits.data() + static_cast<int64_t>(i) * v;
      int32_t best = 0;
      for (int64_t c = 1; c < v; ++c) {
        if (row[c] > row[best]) best = static_cast<int32_t>(c);
      }
      if (best != eos_id) {
        generated[static_cast<size_t>(b)].push_back(best);
        still_active.push_back(b);
        keep.push_back(static_cast<int64_t>(i));
      }
    }
    if (still_active.size() != active.size() && !still_active.empty()) {
      state.GatherRows(keep);
    }
    active = std::move(still_active);
  }
  for (auto& seq : generated) {
    seq.erase(seq.begin());  // drop BOS
  }
  return generated;
}

std::vector<std::vector<int32_t>> Seq2SeqTransformer::GenerateBeam(
    const TokenBatch& src, int32_t bos_id, int32_t eos_id, int64_t max_len,
    int64_t beam_width, int64_t num_results, Rng* rng) const {
  ScopedStageTiming timing("nn.generate_beam");
  RPT_CHECK_EQ(src.batch, 1) << "GenerateBeam expects a single sequence";
  RPT_CHECK_GE(beam_width, 1);
  NoGradGuard no_grad;
  EvalModeGuard eval(this);
  max_len = std::min(max_len, config_.max_seq_len - 1);

  struct Hypothesis {
    std::vector<int32_t> ids;  // starts with BOS
    double log_prob = 0.0;
    bool finished = false;
  };
  const auto normalized = [](const Hypothesis& h) {
    return h.log_prob / static_cast<double>(std::max<size_t>(1, h.ids.size()));
  };
  std::vector<Hypothesis> beam = {Hypothesis{{bos_id}, 0.0, false}};
  std::vector<Hypothesis> finished;
  if (max_len <= 0) beam.clear();

  Tensor memory;
  DecoderState state;
  if (!beam.empty()) {
    memory = Encode(src, rng);
    // One state row per hypothesis; cross-attention K/V over the memory is
    // projected once here and only gathered (replicated/reordered) as the
    // beam evolves — never recomputed per step.
    state = BeginDecode(memory, src.valid);
  }
  // An active hypothesis's length-normalized score can only ever reach
  // log_prob / (max_len + 1): log-probs never increase, and ids can grow to
  // at most BOS + max_len tokens. Used for the early-stop test below.
  const double max_ids = static_cast<double>(max_len + 1);

  for (int64_t step = 0; step < max_len && !beam.empty(); ++step) {
    struct Candidate {
      Hypothesis h;
      int64_t parent = 0;  // state row this candidate extends
    };
    std::vector<Candidate> candidates;
    // Batch all active hypotheses through one cached decode step.
    std::vector<int32_t> last;
    last.reserve(beam.size());
    for (const auto& h : beam) last.push_back(h.ids.back());
    Tensor logits = DecodeStep(last, &state, rng);
    const int64_t v = config_.vocab_size;
    for (size_t hi = 0; hi < beam.size(); ++hi) {
      const auto& h = beam[hi];
      const float* row = logits.data() + static_cast<int64_t>(hi) * v;
      // log-softmax of the row.
      float mx = row[0];
      for (int64_t c = 1; c < v; ++c) mx = std::max(mx, row[c]);
      double sum = 0.0;
      for (int64_t c = 0; c < v; ++c) sum += std::exp(row[c] - mx);
      const double lse = mx + std::log(sum);
      // Keep the top beam_width continuations of this hypothesis.
      std::vector<int32_t> order(static_cast<size_t>(v));
      for (int64_t c = 0; c < v; ++c) {
        order[static_cast<size_t>(c)] = static_cast<int32_t>(c);
      }
      std::partial_sort(order.begin(),
                        order.begin() +
                            std::min<int64_t>(beam_width, v),
                        order.end(), [row](int32_t a, int32_t b) {
                          return row[a] > row[b];
                        });
      for (int64_t k = 0; k < std::min<int64_t>(beam_width, v); ++k) {
        const int32_t tok = order[static_cast<size_t>(k)];
        Hypothesis next = h;
        next.log_prob += row[tok] - lse;
        if (tok == eos_id) {
          next.finished = true;
          finished.push_back(next);
        } else {
          next.ids.push_back(tok);
          candidates.push_back(
              Candidate{std::move(next), static_cast<int64_t>(hi)});
        }
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.h.log_prob > b.h.log_prob;
              });
    if (static_cast<int64_t>(candidates.size()) > beam_width) {
      candidates.resize(static_cast<size_t>(beam_width));
    }

    // Early stop only when provably safe: enough hypotheses have finished
    // AND even the best active hypothesis's optimistic bound cannot beat
    // the k-th best finished score under length normalization. (The old
    // "finished >= beam_width" break could discard an active hypothesis
    // that was still going to win.)
    const size_t k_needed = static_cast<size_t>(
        std::max<int64_t>(beam_width, num_results));
    bool stop = false;
    if (!candidates.empty() && finished.size() >= k_needed) {
      std::vector<double> scores;
      scores.reserve(finished.size());
      for (const auto& h : finished) scores.push_back(normalized(h));
      std::nth_element(scores.begin(), scores.begin() + (k_needed - 1),
                       scores.end(), std::greater<double>());
      const double kth_score = scores[k_needed - 1];
      double best_bound = -std::numeric_limits<double>::infinity();
      for (const auto& c : candidates) {
        best_bound = std::max(best_bound, c.h.log_prob / max_ids);
      }
      stop = best_bound <= kth_score;
    }

    std::vector<Hypothesis> next_beam;
    std::vector<int64_t> parents;
    next_beam.reserve(candidates.size());
    parents.reserve(candidates.size());
    for (auto& c : candidates) {
      next_beam.push_back(std::move(c.h));
      parents.push_back(c.parent);
    }
    beam = std::move(next_beam);
    if (stop) break;
    // Re-wire the decode state rows onto each surviving candidate's parent
    // (replicating rows as the beam widens, dropping pruned ones).
    if (!beam.empty()) state.GatherRows(parents);
  }
  // Unfinished hypotheses still count (length cap or early stop). Their
  // normalized score is never above their optimistic bound, so an early
  // stop cannot let a truncated hypothesis displace a finished winner.
  for (const auto& h : beam) finished.push_back(h);
  std::sort(finished.begin(), finished.end(),
            [&normalized](const Hypothesis& a, const Hypothesis& b) {
              return normalized(a) > normalized(b);
            });
  std::vector<std::vector<int32_t>> out;
  for (const auto& h : finished) {
    if (static_cast<int64_t>(out.size()) >= num_results) break;
    std::vector<int32_t> ids(h.ids.begin() + 1, h.ids.end());  // drop BOS
    out.push_back(std::move(ids));
  }
  return out;
}

}  // namespace rpt
