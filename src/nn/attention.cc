#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.h"
#include "util/logging.h"

namespace rpt {

namespace {

// Copies the `head` column block of `rows` rows of x ([rows, d_model]) into
// the contiguous panel `panel` ([rows, head_dim]).
void GatherHead(const float* x, int64_t rows, int64_t d_model, int64_t head,
                int64_t head_dim, float* panel) {
  const float* from = x + head * head_dim;
  for (int64_t r = 0; r < rows; ++r) {
    std::copy(from + r * d_model, from + r * d_model + head_dim,
              panel + r * head_dim);
  }
}

// Inverse of GatherHead: writes a [rows, head_dim] panel into the `head`
// column block of x ([rows, d_model]).
void ScatterHead(const float* panel, int64_t rows, int64_t d_model,
                 int64_t head, int64_t head_dim, float* x) {
  float* to = x + head * head_dim;
  for (int64_t r = 0; r < rows; ++r) {
    std::copy(panel + r * head_dim, panel + (r + 1) * head_dim,
              to + r * d_model);
  }
}

// Re-lays the cache's panels out at `new_capacity` time steps each.
void GrowCache(KVCache* cache, int64_t new_capacity) {
  const int64_t panels = cache->batch * cache->heads;
  const int64_t dim = cache->head_dim;
  std::vector<float> k(static_cast<size_t>(panels * new_capacity * dim));
  std::vector<float> v(k.size());
  const int64_t valid = cache->length * dim;
  for (int64_t p = 0; p < panels; ++p) {
    const int64_t src = p * cache->capacity * dim;
    const int64_t dst = p * new_capacity * dim;
    std::copy(cache->k.begin() + src, cache->k.begin() + src + valid,
              k.begin() + dst);
    std::copy(cache->v.begin() + src, cache->v.begin() + src + valid,
              v.begin() + dst);
  }
  cache->k = std::move(k);
  cache->v = std::move(v);
  cache->capacity = new_capacity;
}

}  // namespace

Tensor BuildAttentionBias(int64_t batch, int64_t heads, int64_t q_len,
                          int64_t k_len,
                          const std::vector<uint8_t>& key_valid,
                          bool causal) {
  constexpr float kNegInf = -1e9f;
  if (!key_valid.empty()) {
    RPT_CHECK_EQ(static_cast<int64_t>(key_valid.size()), batch * k_len);
  }
  if (causal) RPT_CHECK_EQ(q_len, k_len);
  Tensor bias = Tensor::Zeros({batch, heads, q_len, k_len});
  if ((key_valid.empty() && !causal) || bias.numel() == 0) return bias;
  // Every query row of a sequence starts as the same key row; the causal
  // tail is filled over it. Heads share the mask, so head 0's block is
  // built once and copied to the others.
  std::vector<float> key_row(static_cast<size_t>(k_len), 0.0f);
  const int64_t block = q_len * k_len;
  float* d = bias.data();
  for (int64_t b = 0; b < batch; ++b) {
    if (!key_valid.empty()) {
      const uint8_t* valid = key_valid.data() + b * k_len;
      for (int64_t j = 0; j < k_len; ++j) {
        key_row[static_cast<size_t>(j)] = valid[j] != 0 ? 0.0f : kNegInf;
      }
    }
    float* first = d + b * heads * block;
    for (int64_t i = 0; i < q_len; ++i) {
      float* row = first + i * k_len;
      std::copy(key_row.begin(), key_row.end(), row);
      if (causal) std::fill(row + i + 1, row + k_len, kNegInf);
    }
    for (int64_t h = 1; h < heads; ++h) {
      std::copy(first, first + block, first + h * block);
    }
  }
  return bias;
}

Tensor BuildIncrementalAttentionBias(int64_t batch, int64_t heads,
                                     int64_t k_len,
                                     const std::vector<uint8_t>& key_valid) {
  return BuildAttentionBias(batch, heads, /*q_len=*/1, k_len, key_valid,
                            /*causal=*/false);
}

void KVCache::Append(const float* keys, const float* values, int64_t rows,
                     int64_t steps, int64_t num_heads, int64_t dim) {
  if (capacity == 0) {
    batch = rows;
    heads = num_heads;
    head_dim = dim;
  }
  RPT_CHECK_EQ(rows, batch);
  RPT_CHECK_EQ(num_heads, heads);
  RPT_CHECK_EQ(dim, head_dim);
  if (length + steps > capacity) {
    GrowCache(this, std::max(length + steps, 2 * capacity));
  }
  const int64_t d_model = heads * head_dim;
  for (int64_t b = 0; b < batch; ++b) {
    const int64_t src = b * steps * d_model;
    for (int64_t h = 0; h < heads; ++h) {
      const int64_t dst = PanelOffset(b, h) + length * head_dim;
      GatherHead(keys + src, steps, d_model, h, head_dim, k.data() + dst);
      GatherHead(values + src, steps, d_model, h, head_dim, v.data() + dst);
    }
  }
  length += steps;
}

void KVCache::GatherRows(const std::vector<int64_t>& rows) {
  if (empty()) return;
  const int64_t row_floats = heads * capacity * head_dim;
  std::vector<float> next_k;
  std::vector<float> next_v;
  next_k.reserve(rows.size() * static_cast<size_t>(row_floats));
  next_v.reserve(next_k.capacity());
  for (int64_t r : rows) {
    RPT_CHECK_GE(r, 0);
    RPT_CHECK_LT(r, batch);
    next_k.insert(next_k.end(), k.begin() + r * row_floats,
                  k.begin() + (r + 1) * row_floats);
    next_v.insert(next_v.end(), v.begin() + r * row_floats,
                  v.begin() + (r + 1) * row_floats);
  }
  k = std::move(next_k);
  v = std::move(next_v);
  batch = static_cast<int64_t>(rows.size());
}

MultiHeadAttention::MultiHeadAttention(int64_t d_model, int64_t num_heads,
                                       float dropout, Rng* rng)
    : d_model_(d_model),
      num_heads_(num_heads),
      head_dim_(d_model / num_heads),
      q_proj_(d_model, d_model, rng),
      k_proj_(d_model, d_model, rng),
      v_proj_(d_model, d_model, rng),
      out_proj_(d_model, d_model, rng),
      attn_dropout_(dropout) {
  RPT_CHECK_EQ(head_dim_ * num_heads, d_model)
      << "d_model must be divisible by num_heads";
  RegisterModule("q_proj", &q_proj_);
  RegisterModule("k_proj", &k_proj_);
  RegisterModule("v_proj", &v_proj_);
  RegisterModule("out_proj", &out_proj_);
  RegisterModule("attn_dropout", &attn_dropout_);
}

Tensor MultiHeadAttention::SplitHeads(const Tensor& x, int64_t batch,
                                      int64_t t) const {
  Tensor reshaped = Reshape(x, {batch, t, num_heads_, head_dim_});
  return Transpose(reshaped, 1, 2);
}

void MultiHeadAttention::AppendKV(const Tensor& key, const Tensor& value,
                                  KVCache* cache) const {
  RPT_CHECK(cache != nullptr);
  const int64_t batch = key.dim(0);
  const int64_t t = key.dim(1);
  RPT_CHECK_EQ(key.dim(2), d_model_);
  RPT_CHECK_EQ(value.dim(1), t);
  const Tensor k = k_proj_.Forward(key);
  const Tensor v = v_proj_.Forward(value);
  cache->Append(k.data(), v.data(), batch, t, num_heads_, head_dim_);
}

Tensor MultiHeadAttention::AttendPanels(const Tensor& q, const Tensor& k,
                                        const Tensor& v, const KVCache* cache,
                                        const Tensor& bias) const {
  const int64_t batch = q.dim(0);
  const int64_t q_len = q.dim(1);
  const int64_t k_len = cache != nullptr ? cache->length : k.dim(1);
  if (bias.defined()) {
    RPT_CHECK(bias.shape() ==
              (std::vector<int64_t>{batch, num_heads_, q_len, k_len}))
        << "attention bias must be [B, H, Tq, Tk]";
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
  const int64_t q_panel = q_len * head_dim_;
  const int64_t kv_panel = cache != nullptr ? 0 : k_len * head_dim_;
  const int64_t score_panel = q_len * k_len;
  // One scratch block reused by every (row, head): the query panel, the
  // key/value panels (uncached only; cached panels are read in place), the
  // scores, and the context panel.
  std::vector<float> scratch(
      static_cast<size_t>(2 * q_panel + 2 * kv_panel + score_panel));
  float* qp = scratch.data();
  float* kp = qp + q_panel;
  float* vp = kp + kv_panel;
  float* scores = vp + kv_panel;
  float* context = scores + score_panel;

  Tensor merged = Tensor::Zeros({batch, q_len, d_model_});
  for (int64_t b = 0; b < batch; ++b) {
    const float* q_rows = q.data() + b * q_len * d_model_;
    for (int64_t h = 0; h < num_heads_; ++h) {
      GatherHead(q_rows, q_len, d_model_, h, head_dim_, qp);
      const float* keys = kp;
      const float* values = vp;
      if (cache != nullptr) {
        keys = cache->k.data() + cache->PanelOffset(b, h);
        values = cache->v.data() + cache->PanelOffset(b, h);
      } else {
        const int64_t offset = b * k_len * d_model_;
        GatherHead(k.data() + offset, k_len, d_model_, h, head_dim_, kp);
        GatherHead(v.data() + offset, k_len, d_model_, h, head_dim_, vp);
      }
      // Same operation order as the composed graph — product, then Scale,
      // then Add — so scalar dispatch stays bit-identical to it.
      std::fill(scores, scores + score_panel, 0.0f);
      GemmNT(qp, keys, scores, q_len, head_dim_, k_len);
      for (int64_t i = 0; i < score_panel; ++i) scores[i] *= scale;
      if (bias.defined()) {
        const float* bp = bias.data() + (b * num_heads_ + h) * score_panel;
        for (int64_t i = 0; i < score_panel; ++i) scores[i] += bp[i];
      }
      SoftmaxRows(scores, scores, q_len, k_len);
      std::fill(context, context + q_panel, 0.0f);
      GemmNN(scores, values, context, q_len, k_len, head_dim_);
      ScatterHead(context, q_len, d_model_, h, head_dim_,
                  merged.data() + b * q_len * d_model_);
    }
  }
  return merged;
}

Tensor MultiHeadAttention::Forward(const Tensor& query, const Tensor& key,
                                   const Tensor& value, const Tensor& bias,
                                   Rng* rng, KVCache* cache) const {
  const int64_t batch = query.dim(0);
  const int64_t q_len = query.dim(1);
  RPT_CHECK_EQ(query.dim(2), d_model_);
  const Tensor q = q_proj_.Forward(query);
  const bool bias_tracked = bias.defined() && bias.requires_grad();

  if (cache != nullptr) {
    if (key.defined()) AppendKV(key, value, cache);
    RPT_CHECK(!cache->empty()) << "attention cache holds no keys";
    RPT_CHECK_EQ(cache->batch, batch);
    RPT_CHECK(!(AutogradEnabled() && (q.requires_grad() || bias_tracked)) &&
              !attn_dropout_.active())
        << "KV-cached attention is inference-only (untracked, eval mode)";
    return out_proj_.Forward(AttendPanels(q, Tensor(), Tensor(), cache, bias));
  }

  RPT_CHECK_EQ(key.dim(2), d_model_);
  RPT_CHECK_EQ(value.dim(1), key.dim(1));
  const Tensor k = k_proj_.Forward(key);
  const Tensor v = v_proj_.Forward(value);
  const bool tracked =
      AutogradEnabled() && (q.requires_grad() || k.requires_grad() ||
                            v.requires_grad() || bias_tracked);
  if (!tracked && !attn_dropout_.active()) {
    return out_proj_.Forward(AttendPanels(q, k, v, nullptr, bias));
  }

  // Composed graph (autograd, training-mode dropout).
  // Split heads: [B, T, D] -> [B, H, T, Dh].
  const int64_t k_len = key.dim(1);
  Tensor qh = SplitHeads(q, batch, q_len);
  Tensor kh = SplitHeads(k, batch, k_len);
  Tensor vh = SplitHeads(v, batch, k_len);

  // Scores: [B, H, Tq, Dh] x [B, H, Dh, Tk] -> [B, H, Tq, Tk].
  Tensor kt = Transpose(kh, 2, 3);
  Tensor scores =
      Scale(MatMul(qh, kt), 1.0f / std::sqrt(static_cast<float>(head_dim_)));
  if (bias.defined()) {
    scores = Add(scores, bias);
  }
  Tensor attn = Softmax(scores);
  attn = attn_dropout_.Forward(attn, rng);

  // Context: [B, H, Tq, Tk] x [B, H, Tk, Dh] -> [B, H, Tq, Dh].
  Tensor context = MatMul(attn, vh);
  // Merge heads: [B, H, Tq, Dh] -> [B, Tq, D].
  context = Transpose(context, 1, 2);
  context = Reshape(context, {batch, q_len, d_model_});
  return out_proj_.Forward(context);
}

}  // namespace rpt
