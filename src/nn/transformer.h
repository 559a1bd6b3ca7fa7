// Transformer building blocks and the two model shells used by RPT:
//   * TransformerEncoderModel — BERT-style bidirectional encoder (RPT-E
//     matcher, RPT-I extractor).
//   * Seq2SeqTransformer — BART-style encoder-decoder (RPT-C cleaner and the
//     text-only BART baseline).
//
// Inputs are packed into TokenBatch: flat row-major id buffers plus validity
// flags, with optional column ids and token-type ids whose embeddings are
// summed into the encoder input (the paper's positional + column embeddings,
// Fig. 4).

#ifndef RPT_NN_TRANSFORMER_H_
#define RPT_NN_TRANSFORMER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace rpt {

/// Hyper-parameters shared by both model shells.
struct TransformerConfig {
  int64_t vocab_size = 0;        // required
  int64_t d_model = 64;
  int64_t num_heads = 4;
  int64_t num_encoder_layers = 2;
  int64_t num_decoder_layers = 2;
  int64_t ffn_dim = 256;
  int64_t max_seq_len = 128;
  int64_t num_columns = 24;      // distinct column-position embeddings
  int64_t num_token_types = 4;   // e.g. other/[A]/[V]/special
  float dropout = 0.1f;
  bool use_column_embeddings = true;  // Fig. 4 COL_i embeddings
  bool use_type_embeddings = true;    // [A]/[V] token-kind embeddings
};

/// A batch of token sequences, padded to a common length.
struct TokenBatch {
  int64_t batch = 0;
  int64_t len = 0;
  std::vector<int32_t> ids;       // batch*len token ids
  std::vector<int32_t> col_ids;   // batch*len or empty (no column ids)
  std::vector<int32_t> type_ids;  // batch*len or empty
  std::vector<uint8_t> valid;     // batch*len, 1 = real token, 0 = pad

  /// Builds a padded batch from ragged sequences; `pad_id` fills the tail.
  /// Column/type ids are optional per-sequence and padded with 0.
  static TokenBatch Pack(const std::vector<std::vector<int32_t>>& seqs,
                         int32_t pad_id,
                         const std::vector<std::vector<int32_t>>* col_seqs =
                             nullptr,
                         const std::vector<std::vector<int32_t>>* type_seqs =
                             nullptr);
};

/// Position-wise feed-forward block with GELU.
class FeedForward : public Module {
 public:
  FeedForward(int64_t d_model, int64_t ffn_dim, float dropout, Rng* rng);
  Tensor Forward(const Tensor& x, Rng* rng) const;

 private:
  Linear fc1_;
  Linear fc2_;
  DropoutLayer dropout_;
};

/// Pre-LN encoder layer: x += MHA(LN(x)); x += FFN(LN(x)).
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(const TransformerConfig& config, Rng* rng);

  /// x [B, T, D], bias [B, H, T, T] (may be undefined) -> [B, T, D].
  Tensor Forward(const Tensor& x, const Tensor& bias, Rng* rng) const;

  /// The same layer for the first `rows` positions of each sequence only:
  /// LN1 and the K/V projections still cover all T positions, while the Q
  /// projection, attention, `out_proj`, both residual adds, LN2 and the FFN
  /// run on `rows` rows. `bias` is [B, H, rows, T]; the result is
  /// [B, rows, D]. Forward is this call with rows == T. Every op on the
  /// query side works row by row, so under scalar dispatch each output row
  /// is bit-identical to the same row of the full call.
  Tensor ForwardRows(const Tensor& x, int64_t rows, const Tensor& bias,
                     Rng* rng) const;

 private:
  LayerNormLayer ln1_;
  MultiHeadAttention self_attn_;
  LayerNormLayer ln2_;
  FeedForward ffn_;
  DropoutLayer dropout_;
};

/// Pre-LN decoder layer: causal self-attention, cross-attention, FFN.
class TransformerDecoderLayer : public Module {
 public:
  TransformerDecoderLayer(const TransformerConfig& config, Rng* rng);
  Tensor Forward(const Tensor& x, const Tensor& self_bias,
                 const Tensor& memory, const Tensor& cross_bias,
                 Rng* rng) const;

  /// Incremental decode: processes one new token per row ([B, 1, D]),
  /// appending its K/V to `self_cache` and reading cross-attention K/V from
  /// `cross_cache` (filled once by PrecomputeCross). The newest position
  /// attends to every cached self-attention key, so only the cross bias is
  /// needed. Bit-identical to the matching row of Forward.
  Tensor ForwardStep(const Tensor& x, const Tensor& cross_bias,
                     KVCache* self_cache, KVCache* cross_cache,
                     Rng* rng) const;

  /// Projects the encoder memory into `cache` for cross-attention reuse
  /// across every decode step of a generation.
  void PrecomputeCross(const Tensor& memory, KVCache* cache) const;

 private:
  LayerNormLayer ln1_;
  MultiHeadAttention self_attn_;
  LayerNormLayer ln2_;
  MultiHeadAttention cross_attn_;
  LayerNormLayer ln3_;
  FeedForward ffn_;
  DropoutLayer dropout_;
};

/// Shared input embedding: token + position (+ column) (+ token type),
/// followed by dropout.
class InputEmbedding : public Module {
 public:
  InputEmbedding(const TransformerConfig& config, Rng* rng);

  /// Embeds a TokenBatch into [B, T, D]. Column/type embeddings are added
  /// when both configured and present in the batch. `position_offset`
  /// shifts the position ids, so incremental decoding can embed the newest
  /// token at its true prefix position.
  Tensor Forward(const TokenBatch& batch, Rng* rng,
                 int64_t position_offset = 0) const;

  const Embedding& token_embedding() const { return token_; }

 private:
  TransformerConfig config_;
  Embedding token_;
  Embedding position_;
  std::unique_ptr<Embedding> column_;
  std::unique_ptr<Embedding> type_;
  DropoutLayer dropout_;
};

/// BERT-style bidirectional encoder producing contextual states [B, T, D].
class TransformerEncoderModel : public Module {
 public:
  TransformerEncoderModel(const TransformerConfig& config, Rng* rng);

  /// Contextual hidden states [B, T, D].
  Tensor Encode(const TokenBatch& batch, Rng* rng) const;

  /// Hidden state of position 0 (conventionally [CLS]) for each sequence:
  /// [B, D]. Equal to `Reshape(Slice(Encode(batch), 1, 0, 1), {B, D})`.
  ///
  /// An untracked call with dropout inactive (the rule the fused GEMM and
  /// the attention panels use) computes only what it returns: layers
  /// 0..L-2 run in full and the last layer runs for position 0 alone
  /// (TransformerEncoderLayer::ForwardRows with a [B, H, 1, T] bias), as
  /// does the final LN. The full [B, H, T, T] bias is built only when
  /// L > 1. Bitwise equal to the full call under scalar dispatch. A
  /// tracked or dropout-active call runs Encode and slices, so its graph,
  /// gradients and dropout draws are unchanged.
  Tensor EncodePooled(const TokenBatch& batch, Rng* rng) const;

  const TransformerConfig& config() const { return config_; }

 private:
  /// Embedding, encoder layers and final LN. With `cls_only`, the last
  /// layer and the final LN run for position 0 only ([B, 1, D]).
  Tensor Run(const TokenBatch& batch, bool cls_only, Rng* rng) const;

  TransformerConfig config_;
  InputEmbedding embedding_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
  LayerNormLayer final_ln_;
};

/// Incremental decoding state for one generation: per-decoder-layer
/// self-attention K/V (grown one token per DecodeStep, in place) plus
/// compute-once cross-attention K/V over the encoder memory. Created by
/// BeginDecode; batch rows track the active sequences (greedy rows or beam
/// hypotheses). Copies are deep: a copied state decodes independently.
struct DecoderState {
  std::vector<KVCache> self_cache;   // one per decoder layer, append-mode
  std::vector<KVCache> cross_cache;  // one per decoder layer, compute-once
  std::vector<uint8_t> src_valid;    // batch*src_len cross-attn key mask
  int64_t batch = 0;
  int64_t src_len = 0;
  int64_t step = 0;  // decoder tokens consumed so far (= cached positions)

  /// Reorders/compacts/replicates the batch rows of every cache (and the
  /// source mask): row i of the result is old row rows[i]. Used to drop
  /// finished rows from a greedy micro-batch and to re-wire beam
  /// hypotheses onto their parents after reordering.
  void GatherRows(const std::vector<int64_t>& rows);
};

/// BART-style denoising encoder-decoder with a tied-vocabulary LM head.
class Seq2SeqTransformer : public Module {
 public:
  Seq2SeqTransformer(const TransformerConfig& config, Rng* rng);

  /// Encoder states [B, Ts, D] for the (possibly corrupted) source.
  Tensor Encode(const TokenBatch& src, Rng* rng) const;

  /// Decoder logits [B, Tt, V] given teacher-forced target input ids.
  /// `src_valid` is the source validity mask used for cross-attention.
  Tensor DecodeLogits(const TokenBatch& tgt, const Tensor& memory,
                      const std::vector<uint8_t>& src_valid,
                      Rng* rng) const;

  /// Convenience: encode src and return decoder logits for tgt.
  Tensor Forward(const TokenBatch& src, const TokenBatch& tgt,
                 Rng* rng) const;

  /// Starts an incremental decode over `memory` ([B, Ts, D], from Encode):
  /// projects every layer's cross-attention K/V once into head-major panels
  /// and returns an empty per-layer self-attention cache. `src_valid` is the
  /// source validity mask (batch*Ts, or empty for all-valid).
  DecoderState BeginDecode(const Tensor& memory,
                           const std::vector<uint8_t>& src_valid) const;

  /// Feeds one token per active row (`last_tokens.size() == state->batch`)
  /// and returns next-token logits [B, V]. Each call projects only the new
  /// token (one query row per layer), writes its K/V into the cache in
  /// place and reads the cached panels directly, so no step copies the
  /// cache; the self-attention of a step at prefix t still reads t cached
  /// keys. Bit-identical to the final position of DecodeLogits over the
  /// full prefix. The model must be in eval mode (the generators force it).
  Tensor DecodeStep(const std::vector<int32_t>& last_tokens,
                    DecoderState* state, Rng* rng) const;

  /// Greedy autoregressive generation. Starts each sequence with `bos_id`,
  /// stops at `eos_id` or `max_len` (clamped to max_seq_len - 1 so the
  /// prefix never outgrows the position table). Returns one id sequence per
  /// batch row (without BOS/EOS).
  ///
  /// Decodes the whole batch through the KV-cached DecodeStep (no per-step
  /// copy of the cache; step t reads t cached keys); rows that emit EOS are
  /// compacted out of the decode state, so a micro-batch of ragged-length
  /// answers only pays for its active rows. Eval mode is forced for the
  /// duration of the call (and restored), so results are deterministic even
  /// on a model left in training mode.
  std::vector<std::vector<int32_t>> GenerateGreedy(const TokenBatch& src,
                                                   int32_t bos_id,
                                                   int32_t eos_id,
                                                   int64_t max_len,
                                                   Rng* rng) const;

  /// Beam-search generation for a single sequence (batch==1 slice of src).
  /// Returns the highest-scoring candidates, best first (at most
  /// `num_results`), ranked by length-normalized log-probability.
  ///
  /// Rides the same KV-cached DecodeStep (one state row per hypothesis,
  /// gathered onto parents after each reordering; cross-attention K/V over
  /// the memory is computed once per call, not per step). Decoding stops
  /// early only when no active hypothesis can still beat the established
  /// finished results under length normalization.
  std::vector<std::vector<int32_t>> GenerateBeam(const TokenBatch& src,
                                                 int32_t bos_id,
                                                 int32_t eos_id,
                                                 int64_t max_len,
                                                 int64_t beam_width,
                                                 int64_t num_results,
                                                 Rng* rng) const;

  const TransformerConfig& config() const { return config_; }

 private:
  TransformerConfig config_;
  InputEmbedding src_embedding_;
  InputEmbedding tgt_embedding_;
  std::vector<std::unique_ptr<TransformerEncoderLayer>> encoder_layers_;
  std::vector<std::unique_ptr<TransformerDecoderLayer>> decoder_layers_;
  LayerNormLayer encoder_ln_;
  LayerNormLayer decoder_ln_;
  Linear lm_head_;
};

}  // namespace rpt

#endif  // RPT_NN_TRANSFORMER_H_
