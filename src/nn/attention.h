// Multi-head scaled-dot-product attention (Vaswani et al., 2017).

#ifndef RPT_NN_ATTENTION_H_
#define RPT_NN_ATTENTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace rpt {

/// Builds an additive attention bias of shape [batch, heads, q_len, k_len]:
/// 0 where attention is allowed and -1e9 where it is masked.
///
/// `key_valid` flags valid (non-pad) key positions, length batch*k_len (an
/// empty vector means every key is valid). When `causal`, position i may
/// additionally only attend to keys j <= i (requires q_len == k_len).
Tensor BuildAttentionBias(int64_t batch, int64_t heads, int64_t q_len,
                          int64_t k_len,
                          const std::vector<uint8_t>& key_valid,
                          bool causal);

/// Incremental-decode variant: the bias for a single query row (the newest
/// decoder position) against `k_len` cached keys, shape
/// [batch, heads, 1, k_len]. The newest position may attend to every cached
/// key, so no causal term is needed — only `key_valid` padding is masked.
Tensor BuildIncrementalAttentionBias(int64_t batch, int64_t heads,
                                     int64_t k_len,
                                     const std::vector<uint8_t>& key_valid);

/// Cached key/value projections for incremental decoding, head-major:
/// `k` and `v` each hold [batch, heads, capacity, head_dim] floats, and the
/// first `length` time steps of every (row, head) panel are valid. A panel is
/// therefore a contiguous [length, head_dim] matrix that the attention
/// kernels read in place.
///
/// Two usage modes (both inference-only, no autograd):
///   * append-mode (decoder self-attention): each decode step's K/V is
///     written in place at time step `length`. When a panel is full the
///     capacity grows geometrically (at least doubling), so a step copies
///     nothing already cached except at those growth points, and the buffers
///     are never sized up front to max_seq_len;
///   * compute-once (decoder cross-attention): the encoder memory is appended
///     a single time (capacity == source length), then reused every step.
///
/// The buffers are plain vectors, so copying a KVCache (or a DecoderState)
/// copies the cached values: the copy and the original evolve independently.
struct KVCache {
  std::vector<float> k;
  std::vector<float> v;
  int64_t batch = 0;
  int64_t heads = 0;
  int64_t head_dim = 0;
  int64_t capacity = 0;  // allocated time steps per (row, head) panel
  int64_t length = 0;    // cached time steps per (row, head) panel

  bool empty() const { return length == 0; }

  /// Offset of the (row, head) panel within `k` and `v`.
  int64_t PanelOffset(int64_t row, int64_t head) const {
    return (row * heads + head) * capacity * head_dim;
  }

  /// Appends `steps` time steps per row. `keys`/`values` are projected rows
  /// laid out [rows, steps, num_heads * dim] (a Linear output); each head's
  /// slice of a row is copied into its panel at time step `length`. The
  /// first append fixes batch/heads/head_dim; later ones must match.
  void Append(const float* keys, const float* values, int64_t rows,
              int64_t steps, int64_t num_heads, int64_t dim);

  /// Reorders/compacts/replicates the batch axis: row i of the result is
  /// old row rows[i]. Repeats are allowed (beam replication); dropping
  /// indices compacts finished rows out. Copies whole rows; nothing is
  /// zero-filled.
  void GatherRows(const std::vector<int64_t>& rows);
};

/// Standard multi-head attention. Query/key/value projections, per-head
/// scaled dot-product with an additive bias, then an output projection.
///
/// Two implementations of the same math:
///   * the inference path, taken whenever no gradient is tracked and
///     attention dropout is inactive: each (batch row, head) runs on
///     contiguous [T, Dh] panels — GemmNT for the scores, scale plus bias and
///     an in-place softmax, GemmNN for the context — and each head's context
///     is written into its column block of the merged [B, Tq, D] input of the
///     output projection. No split-head tensor, transpose or score tensor is
///     built. Under scalar dispatch it is bit-identical to the composed graph.
///   * the composed tensor graph (split heads, MatMul, Scale, Add, Softmax,
///     dropout, merge heads), kept for autograd and training-mode dropout.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int64_t d_model, int64_t num_heads, float dropout,
                     Rng* rng);

  /// query [B, Tq, D], key/value [B, Tk, D], bias [B, H, Tq, Tk] (may be
  /// undefined for no masking). Returns [B, Tq, D].
  ///
  /// With a `cache`, attention runs against the cached keys/values instead
  /// of projecting `key`/`value` in full: when `key` is defined it is
  /// projected and appended to the cache first (incremental self-attention
  /// over new tokens); when `key` is undefined the cache is used as-is
  /// (cross-attention whose K/V were precomputed with AppendKV). `bias`
  /// must then be [B, H, Tq, cache length] or undefined. Cached calls always
  /// take the inference path, so they must be untracked with dropout
  /// inactive (eval mode).
  Tensor Forward(const Tensor& query, const Tensor& key, const Tensor& value,
                 const Tensor& bias, Rng* rng,
                 KVCache* cache = nullptr) const;

  /// Projects `key`/`value` ([B, T, D]) and appends them to `cache` along
  /// the time axis (initializing it when empty). Inference-only.
  void AppendKV(const Tensor& key, const Tensor& value, KVCache* cache) const;

  int64_t num_heads() const { return num_heads_; }

 private:
  /// [B, T, D] -> [B, H, T, Dh]. Composed graph only.
  Tensor SplitHeads(const Tensor& x, int64_t batch, int64_t t) const;

  /// The inference path over projected q [B, Tq, D] and either projected
  /// k/v [B, Tk, D] or, when `cache` is non-null, its panels. Returns the
  /// merged-heads context [B, Tq, D] (before the output projection).
  Tensor AttendPanels(const Tensor& q, const Tensor& k, const Tensor& v,
                      const KVCache* cache, const Tensor& bias) const;

  int64_t d_model_;
  int64_t num_heads_;
  int64_t head_dim_;
  Linear q_proj_;
  Linear k_proj_;
  Linear v_proj_;
  Linear out_proj_;
  DropoutLayer attn_dropout_;
};

}  // namespace rpt

#endif  // RPT_NN_ATTENTION_H_
