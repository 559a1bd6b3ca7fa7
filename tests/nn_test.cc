// Tests for layers, attention, transformer shells, optimizers, and
// checkpointing, including small end-to-end learning sanity checks.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "nn/attention.h"
#include "nn/checkpoint.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "tensor/cpu_features.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace rpt {
namespace {

TransformerConfig SmallConfig(int64_t vocab) {
  TransformerConfig config;
  config.vocab_size = vocab;
  config.d_model = 32;
  config.num_heads = 2;
  config.num_encoder_layers = 1;
  config.num_decoder_layers = 1;
  config.ffn_dim = 64;
  config.max_seq_len = 32;
  config.dropout = 0.0f;
  return config;
}

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear lin(4, 3, &rng);
  Tensor x = Tensor::Zeros({2, 4});
  Tensor y = lin.Forward(x);
  ASSERT_EQ(y.shape(), (std::vector<int64_t>{2, 3}));
  // Zero input -> output equals bias (zero-initialized).
  for (int i = 0; i < 6; ++i) EXPECT_EQ(y.at(i), 0.0f);
}

TEST(LinearTest, LeadingDimsPreserved) {
  Rng rng(2);
  Linear lin(4, 5, &rng);
  Tensor x = Tensor::Randn({2, 3, 4}, 1.0f, &rng);
  Tensor y = lin.Forward(x);
  ASSERT_EQ(y.shape(), (std::vector<int64_t>{2, 3, 5}));
}

TEST(EmbeddingTest, LookupAndCount) {
  Rng rng(3);
  Embedding emb(10, 4, &rng);
  Tensor e = emb.Forward({0, 9, 5});
  ASSERT_EQ(e.shape(), (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(emb.ParameterCount(), 40);
}

TEST(ModuleTest, NamedParametersAreStable) {
  Rng rng(4);
  Linear lin(2, 2, &rng);
  auto named = lin.NamedParameters();
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
}

TEST(ModuleTest, SetTrainingPropagates) {
  Rng rng(5);
  MultiHeadAttention mha(32, 2, 0.1f, &rng);
  mha.SetTraining(false);
  EXPECT_FALSE(mha.training());
}

// Key-validity flags for `batch` rows of `len` keys; row b keeps
// len - 2*b valid keys (at least one), so later rows are padded.
std::vector<uint8_t> PaddedValid(int64_t batch, int64_t len) {
  std::vector<uint8_t> valid(static_cast<size_t>(batch * len), 1);
  for (int64_t b = 0; b < batch; ++b) {
    const int64_t keep = std::max<int64_t>(1, len - 2 * b);
    for (int64_t t = keep; t < len; ++t) {
      valid[static_cast<size_t>(b * len + t)] = 0;
    }
  }
  return valid;
}

TEST(AttentionBiasTest, CausalMasking) {
  Tensor bias = BuildAttentionBias(1, 1, 3, 3, {}, /*causal=*/true);
  // Row 0 can only see col 0.
  EXPECT_EQ(bias.at(0 * 3 + 0), 0.0f);
  EXPECT_LT(bias.at(0 * 3 + 1), -1e8f);
  EXPECT_LT(bias.at(0 * 3 + 2), -1e8f);
  // Row 2 sees everything.
  for (int j = 0; j < 3; ++j) EXPECT_EQ(bias.at(2 * 3 + j), 0.0f);
}

TEST(AttentionBiasTest, PaddingMasking) {
  std::vector<uint8_t> valid = {1, 1, 0};  // last key is pad
  Tensor bias = BuildAttentionBias(1, 2, 2, 3, valid, /*causal=*/false);
  for (int h = 0; h < 2; ++h) {
    for (int i = 0; i < 2; ++i) {
      EXPECT_EQ(bias.at((h * 2 + i) * 3 + 0), 0.0f);
      EXPECT_EQ(bias.at((h * 2 + i) * 3 + 1), 0.0f);
      EXPECT_LT(bias.at((h * 2 + i) * 3 + 2), -1e8f);
    }
  }
}

// Element-by-element reference: the definition BuildAttentionBias must meet.
std::vector<float> NaiveAttentionBias(int64_t batch, int64_t heads,
                                      int64_t q_len, int64_t k_len,
                                      const std::vector<uint8_t>& key_valid,
                                      bool causal) {
  std::vector<float> out;
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t h = 0; h < heads; ++h) {
      for (int64_t i = 0; i < q_len; ++i) {
        for (int64_t j = 0; j < k_len; ++j) {
          const bool masked =
              (causal && j > i) ||
              (!key_valid.empty() && key_valid[b * k_len + j] == 0);
          out.push_back(masked ? -1e9f : 0.0f);
        }
      }
    }
  }
  return out;
}

TEST(AttentionBiasTest, MatchesElementwiseReferenceBitForBit) {
  const int64_t batch = 4, heads = 3;
  for (int64_t len : {1, 2, 7, 16}) {
    const std::vector<std::vector<uint8_t>> masks = {
        {}, PaddedValid(batch, len)};
    for (const std::vector<uint8_t>& keys : masks) {
      for (bool causal : {false, true}) {
        SCOPED_TRACE("T=" + std::to_string(len) +
                     (keys.empty() ? " all-valid" : " padded") +
                     (causal ? " causal" : ""));
        EXPECT_EQ(BuildAttentionBias(batch, heads, len, len, keys, causal)
                      .ToVector(),
                  NaiveAttentionBias(batch, heads, len, len, keys, causal));
      }
      // One query row (the [CLS] row of a pooled encode) against T keys.
      EXPECT_EQ(BuildAttentionBias(batch, heads, 1, len, keys, false)
                    .ToVector(),
                NaiveAttentionBias(batch, heads, 1, len, keys, false));
    }
  }
}

TEST(AttentionTest, OutputShape) {
  Rng rng(6);
  MultiHeadAttention mha(32, 4, 0.0f, &rng);
  mha.SetTraining(false);
  Tensor x = Tensor::Randn({2, 5, 32}, 1.0f, &rng);
  Tensor y = mha.Forward(x, x, x, Tensor(), &rng);
  ASSERT_EQ(y.shape(), (std::vector<int64_t>{2, 5, 32}));
}

TEST(AttentionTest, MaskedPositionsDoNotInfluenceOutput) {
  // Changing the content of a fully masked key position must not change
  // the attention output for valid queries.
  Rng rng(7);
  MultiHeadAttention mha(16, 2, 0.0f, &rng);
  mha.SetTraining(false);
  Tensor x1 = Tensor::Randn({1, 4, 16}, 1.0f, &rng);
  Tensor x2 = x1.Detach();
  // Perturb the last position of x2.
  for (int d = 0; d < 16; ++d) x2.data()[3 * 16 + d] += 5.0f;
  std::vector<uint8_t> valid = {1, 1, 1, 0};
  Tensor bias = BuildAttentionBias(1, 2, 4, 4, valid, false);
  NoGradGuard guard;
  Tensor y1 = mha.Forward(x1, x1, x1, bias, &rng);
  Tensor y2 = mha.Forward(x2, x2, x2, bias, &rng);
  // Positions 0..2 identical (their queries are the same and masked keys
  // cannot contribute).
  for (int t = 0; t < 3; ++t) {
    for (int d = 0; d < 16; ++d) {
      EXPECT_NEAR(y1.at(t * 16 + d), y2.at(t * 16 + d), 1e-4);
    }
  }
}

// ---- Inference attention path vs the composed graph ------------------------

// Untracked attention takes the panel path; the same call with autograd on
// takes the composed graph. They must agree bit for bit under scalar
// dispatch and within the 1e-4 tier under AVX2.
void ExpectMatchesComposed(const Tensor& inference, const Tensor& composed) {
  ASSERT_EQ(inference.shape(), composed.shape());
  ASSERT_FALSE(inference.requires_grad());
  ASSERT_TRUE(composed.requires_grad()) << "reference did not track grads";
  const bool exact = ActiveTensorBackend() == TensorBackend::kScalar;
  for (int64_t i = 0; i < composed.numel(); ++i) {
    if (exact) {
      ASSERT_EQ(inference.at(i), composed.at(i)) << "element " << i;
    } else {
      ASSERT_NEAR(inference.at(i), composed.at(i), 1e-4) << "element " << i;
    }
  }
}

TEST(InferenceAttentionTest, SelfAttentionMatchesComposedGraph) {
  Rng rng(901);
  // Dropout is configured but inactive in eval mode.
  MultiHeadAttention mha(32, 4, 0.1f, &rng);
  mha.SetTraining(false);
  const int64_t batch = 3, len = 9;
  Tensor x = Tensor::Randn({batch, len, 32}, 1.0f, &rng);
  const Tensor padded_causal = BuildAttentionBias(
      batch, 4, len, len, PaddedValid(batch, len), /*causal=*/true);
  for (const Tensor& bias : {padded_causal, Tensor()}) {
    Tensor composed = mha.Forward(x, x, x, bias, &rng);
    NoGradGuard no_grad;
    ExpectMatchesComposed(mha.Forward(x, x, x, bias, &rng), composed);
  }
}

TEST(InferenceAttentionTest, CrossAttentionMatchesComposedGraph) {
  Rng rng(902);
  MultiHeadAttention mha(32, 4, 0.0f, &rng);
  mha.SetTraining(false);
  const int64_t batch = 3, q_len = 5, k_len = 11;
  Tensor query = Tensor::Randn({batch, q_len, 32}, 1.0f, &rng);
  Tensor memory = Tensor::Randn({batch, k_len, 32}, 1.0f, &rng);
  Tensor bias = BuildAttentionBias(batch, 4, q_len, k_len,
                                   PaddedValid(batch, k_len), false);
  Tensor composed = mha.Forward(query, memory, memory, bias, &rng);
  NoGradGuard no_grad;
  ExpectMatchesComposed(mha.Forward(query, memory, memory, bias, &rng),
                        composed);
}

TEST(InferenceAttentionTest, CachedCallsMatchComposedGraph) {
  Rng rng(903);
  MultiHeadAttention mha(32, 4, 0.0f, &rng);
  mha.SetTraining(false);
  const int64_t batch = 3, heads = 4;
  for (int64_t q_len : {1, 5}) {
    for (int64_t k_len : {1, 7, 8, 17, 36}) {
      SCOPED_TRACE("Tq=" + std::to_string(q_len) +
                   " Tk=" + std::to_string(k_len));
      Tensor keys = Tensor::Randn({batch, k_len, 32}, 1.0f, &rng);
      Tensor query = Tensor::Randn({batch, q_len, 32}, 1.0f, &rng);

      // Cross-attention style: the cache is filled once, the call passes no
      // key and attends to the cache as-is.
      Tensor cross_bias = BuildAttentionBias(batch, heads, q_len, k_len,
                                             PaddedValid(batch, k_len),
                                             false);
      Tensor composed = mha.Forward(query, keys, keys, cross_bias, &rng);
      {
        NoGradGuard no_grad;
        KVCache cache;
        mha.AppendKV(keys, keys, &cache);
        ExpectMatchesComposed(mha.Forward(query, Tensor(), Tensor(),
                                          cross_bias, &rng, &cache),
                              composed);
      }

      // Self-attention style: the first k_len - q_len keys are appended one
      // step at a time (growing the cache), then the call appends the last
      // q_len and attends causally over all k_len.
      if (k_len < q_len) continue;
      const int64_t prefix = k_len - q_len;
      Tensor fresh = Slice(keys, 1, prefix, k_len);
      Tensor causal = Slice(
          BuildAttentionBias(batch, heads, k_len, k_len, {}, true), 2,
          prefix, k_len);
      composed = mha.Forward(fresh, keys, keys, causal, &rng);
      NoGradGuard no_grad;
      KVCache cache;
      for (int64_t t = 0; t < prefix; ++t) {
        Tensor step = Slice(keys, 1, t, t + 1);
        mha.AppendKV(step, step, &cache);
      }
      ExpectMatchesComposed(
          mha.Forward(fresh, fresh, fresh, causal, &rng, &cache), composed);
      EXPECT_EQ(cache.length, k_len);
    }
  }
}

TEST(TokenBatchTest, PackPadsToMaxLen) {
  TokenBatch b = TokenBatch::Pack({{1, 2, 3}, {4}}, /*pad_id=*/0);
  EXPECT_EQ(b.batch, 2);
  EXPECT_EQ(b.len, 3);
  EXPECT_EQ(b.ids, (std::vector<int32_t>{1, 2, 3, 4, 0, 0}));
  EXPECT_EQ(b.valid, (std::vector<uint8_t>{1, 1, 1, 1, 0, 0}));
}

TEST(TokenBatchTest, PackWithColumnAndTypeIds) {
  std::vector<std::vector<int32_t>> seqs = {{5, 6}};
  std::vector<std::vector<int32_t>> cols = {{0, 1}};
  std::vector<std::vector<int32_t>> types = {{2, 1}};
  TokenBatch b = TokenBatch::Pack(seqs, 0, &cols, &types);
  EXPECT_EQ(b.col_ids, (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(b.type_ids, (std::vector<int32_t>{2, 1}));
}

TEST(TokenBatchTest, PackEmptySequenceList) {
  TokenBatch batch = TokenBatch::Pack({}, 0);
  EXPECT_EQ(batch.batch, 0);
  EXPECT_EQ(batch.len, 1);  // len is clamped away from zero-size tensors
  EXPECT_TRUE(batch.ids.empty());
  EXPECT_TRUE(batch.valid.empty());
}

TEST(TokenBatchTest, PackAllPadRows) {
  // Empty sequences produce rows that are entirely padding.
  TokenBatch batch = TokenBatch::Pack({{}, {7}, {}}, 9);
  EXPECT_EQ(batch.batch, 3);
  EXPECT_EQ(batch.len, 1);
  EXPECT_EQ(batch.ids, (std::vector<int32_t>{9, 7, 9}));
  EXPECT_EQ(batch.valid, (std::vector<uint8_t>{0, 1, 0}));
}

TEST(TokenBatchTest, PackRaggedColAndTypeIds) {
  // Col/type sequences mirror their id sequence lengths row by row; pads
  // get id 0.
  std::vector<std::vector<int32_t>> ids = {{1, 2, 3}, {4}};
  std::vector<std::vector<int32_t>> cols = {{5, 6, 7}, {8}};
  std::vector<std::vector<int32_t>> types = {{1, 1, 2}, {3}};
  TokenBatch batch = TokenBatch::Pack(ids, 0, &cols, &types);
  EXPECT_EQ(batch.len, 3);
  EXPECT_EQ(batch.col_ids, (std::vector<int32_t>{5, 6, 7, 8, 0, 0}));
  EXPECT_EQ(batch.type_ids, (std::vector<int32_t>{1, 1, 2, 3, 0, 0}));
  EXPECT_EQ(batch.valid, (std::vector<uint8_t>{1, 1, 1, 1, 0, 0}));
}

TEST(TokenBatchTest, PackMismatchedColArityDies) {
  std::vector<std::vector<int32_t>> ids = {{1, 2}};
  std::vector<std::vector<int32_t>> cols = {{5}};  // wrong length
  EXPECT_DEATH(TokenBatch::Pack(ids, 0, &cols), "");
}

TEST(EncoderModelTest, EncodeShapes) {
  Rng rng(8);
  auto config = SmallConfig(50);
  TransformerEncoderModel model(config, &rng);
  model.SetTraining(false);
  TokenBatch batch = TokenBatch::Pack({{1, 2, 3}, {4, 5}}, 0);
  Tensor states = model.Encode(batch, &rng);
  ASSERT_EQ(states.shape(), (std::vector<int64_t>{2, 3, 32}));
  Tensor pooled = model.EncodePooled(batch, &rng);
  ASSERT_EQ(pooled.shape(), (std::vector<int64_t>{2, 32}));
}

// ---- Pooled encode ([CLS]-only last layer) vs the full encode ---------------

// The reference a pooled call must equal: the full encode, position 0.
Tensor PooledReference(const TransformerEncoderModel& model,
                       const TokenBatch& batch, Rng* rng) {
  return Reshape(Slice(model.Encode(batch, rng), 1, 0, 1),
                 {batch.batch, model.config().d_model});
}

// `count` sequences whose lengths cycle through `lengths`.
TokenBatch MixedLengthBatch(int64_t count, const std::vector<int64_t>& lengths,
                            Rng* rng) {
  std::vector<std::vector<int32_t>> seqs;
  for (int64_t i = 0; i < count; ++i) {
    std::vector<int32_t> seq(
        static_cast<size_t>(lengths[static_cast<size_t>(i) % lengths.size()]));
    for (auto& id : seq) id = static_cast<int32_t>(1 + rng->UniformInt(49));
    seqs.push_back(std::move(seq));
  }
  return TokenBatch::Pack(seqs, 0);
}

TEST(EncoderModelTest, PooledMatchesSliceOfFullEncode) {
  const bool exact = ActiveTensorBackend() == TensorBackend::kScalar;
  for (int64_t layers : {1, 2, 3}) {
    Rng rng(40 + layers);
    TransformerConfig config = SmallConfig(50);
    config.num_encoder_layers = layers;
    config.dropout = 0.1f;  // configured, inactive in eval mode
    TransformerEncoderModel model(config, &rng);
    model.SetTraining(false);
    const int64_t max_len = config.max_seq_len;
    const std::vector<TokenBatch> batches = {
        MixedLengthBatch(5, {1, max_len, 3, max_len - 1, 1}, &rng),
        MixedLengthBatch(1, {7}, &rng),
        MixedLengthBatch(1, {1}, &rng),
        MixedLengthBatch(16, {2, 9, 30, 1}, &rng),
    };
    for (const TokenBatch& batch : batches) {
      SCOPED_TRACE("L=" + std::to_string(layers) +
                   " B=" + std::to_string(batch.batch) +
                   " T=" + std::to_string(batch.len));
      NoGradGuard no_grad;
      Rng pooled_rng(7), full_rng(7);
      const Tensor pooled = model.EncodePooled(batch, &pooled_rng);
      const Tensor full = PooledReference(model, batch, &full_rng);
      ASSERT_EQ(pooled.shape(), full.shape());
      for (int64_t i = 0; i < full.numel(); ++i) {
        if (exact) {
          ASSERT_EQ(pooled.at(i), full.at(i)) << "element " << i;
        } else {
          ASSERT_NEAR(pooled.at(i), full.at(i), 1e-4) << "element " << i;
        }
      }
      EXPECT_EQ(pooled_rng.Next(), full_rng.Next());
    }
  }
}

// A tracked call and a training-mode call must run the full encode: the
// same dropout draws (RNG state afterwards) and, when tracked, the same
// gradients as slicing Encode.
TEST(EncoderModelTest, TrackedAndTrainingPooledCallsKeepTheFullPath) {
  Rng rng(45);
  TransformerConfig config = SmallConfig(50);
  config.num_encoder_layers = 2;
  config.dropout = 0.1f;
  TransformerEncoderModel model(config, &rng);
  const TokenBatch batch = MixedLengthBatch(4, {1, 6, 11, 3}, &rng);
  const Tensor weights = Tensor::Randn({4, config.d_model}, 1.0f, &rng);

  // Loss = sum(pooled * weights); returns every parameter gradient.
  const auto gradients = [&](const Tensor& pooled) {
    model.ZeroGrad();
    Sum(Mul(pooled, weights)).Backward();
    std::vector<std::vector<float>> out;
    for (const Tensor& p : model.Parameters()) {
      out.push_back(p.has_grad() ? std::vector<float>(p.grad_data(),
                                                      p.grad_data() + p.numel())
                                 : std::vector<float>());
    }
    return out;
  };

  for (bool training : {false, true}) {
    SCOPED_TRACE(training ? "training mode, tracked" : "eval mode, tracked");
    model.SetTraining(training);
    Rng pooled_rng(9), full_rng(9);
    const Tensor pooled = model.EncodePooled(batch, &pooled_rng);
    const Tensor full = PooledReference(model, batch, &full_rng);
    EXPECT_EQ(pooled.ToVector(), full.ToVector());
    EXPECT_EQ(pooled_rng.Next(), full_rng.Next());
    EXPECT_EQ(gradients(pooled), gradients(full));
  }

  // Untracked but training mode: dropout draws over every position.
  SCOPED_TRACE("training mode, untracked");
  model.SetTraining(true);
  NoGradGuard no_grad;
  Rng pooled_rng(11), full_rng(11);
  const Tensor pooled = model.EncodePooled(batch, &pooled_rng);
  const Tensor full = PooledReference(model, batch, &full_rng);
  EXPECT_EQ(pooled.ToVector(), full.ToVector());
  EXPECT_EQ(pooled_rng.Next(), full_rng.Next());
}

TEST(Seq2SeqTest, ForwardShapes) {
  Rng rng(9);
  auto config = SmallConfig(50);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  TokenBatch src = TokenBatch::Pack({{1, 2, 3, 4}}, 0);
  TokenBatch tgt = TokenBatch::Pack({{1, 2, 3}}, 0);
  Tensor logits = model.Forward(src, tgt, &rng);
  ASSERT_EQ(logits.shape(), (std::vector<int64_t>{1, 3, 50}));
}

TEST(OptimizerTest, SgdDecreasesQuadratic) {
  // minimize ||w||^2 with SGD.
  Tensor w = Tensor::FromVector({3.0f, -4.0f}, {2});
  w.set_requires_grad(true);
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 50; ++i) {
    opt.ZeroGrad();
    Tensor loss = Sum(Mul(w, w));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.at(0), 0.0f, 1e-3);
  EXPECT_NEAR(w.at(1), 0.0f, 1e-3);
}

TEST(OptimizerTest, AdamDecreasesQuadratic) {
  Tensor w = Tensor::FromVector({3.0f, -4.0f}, {2});
  w.set_requires_grad(true);
  Adam opt({w}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    Tensor loss = Sum(Mul(w, w));
    loss.Backward();
    opt.Step();
  }
  // Adam hovers around the optimum at a scale proportional to the LR.
  EXPECT_NEAR(w.at(0), 0.0f, 0.05f);
  EXPECT_NEAR(w.at(1), 0.0f, 0.05f);
}

TEST(OptimizerTest, ClipGradNormScales) {
  Tensor w = Tensor::FromVector({3.0f, 4.0f}, {2});
  w.set_requires_grad(true);
  Tensor loss = Sum(Mul(w, w));  // grad = 2w = (6, 8), norm 10
  loss.Backward();
  float norm = ClipGradNorm({w}, 5.0f);
  EXPECT_NEAR(norm, 10.0f, 1e-4);
  EXPECT_NEAR(w.grad_data()[0], 3.0f, 1e-4);
  EXPECT_NEAR(w.grad_data()[1], 4.0f, 1e-4);
}

TEST(OptimizerTest, WarmupScheduleShape) {
  WarmupSchedule sched(1e-3f, 100);
  EXPECT_LT(sched.LearningRate(1), sched.LearningRate(50));
  EXPECT_LT(sched.LearningRate(50), sched.LearningRate(100));
  EXPECT_GT(sched.LearningRate(100), sched.LearningRate(400));
  EXPECT_NEAR(sched.LearningRate(100), 1e-3f, 1e-6);
}

// ctest runs this suite under three backends at once, so each process
// writes its own checkpoint files.
std::string CheckpointPath(const std::string& name) {
  return "/tmp/" + std::to_string(getpid()) + "_" + name;
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  Rng rng1(10), rng2(11);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model1(config, &rng1);
  Seq2SeqTransformer model2(config, &rng2);

  const std::string path = CheckpointPath("rpt_test_checkpoint.bin");
  ASSERT_TRUE(SaveCheckpoint(model1, path).ok());
  ASSERT_TRUE(LoadCheckpoint(&model2, path).ok());

  auto p1 = model1.NamedParameters();
  auto p2 = model2.NamedParameters();
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].second.ToVector(), p2[i].second.ToVector())
        << "mismatch at " << p1[i].first;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, LoadRejectsTrailingGarbage) {
  // A truncation or corruption that leaves extra bytes after a valid state
  // blob must not alias to success: the reader has to consume the file
  // exactly.
  Rng rng1(13), rng2(14);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng1);
  const std::string path = CheckpointPath("rpt_test_checkpoint_padded.bin");
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  {
    std::ofstream pad(path, std::ios::binary | std::ios::app);
    const char junk[7] = {0, 1, 2, 3, 4, 5, 6};
    pad.write(junk, sizeof(junk));
  }
  Seq2SeqTransformer other(config, &rng2);
  Status s = LoadCheckpoint(&other, path);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("trailing"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveReplacesExistingCheckpointAtomically) {
  // SaveCheckpoint goes through a temp file + rename: overwriting an
  // existing checkpoint must leave no ".tmp" debris, and the replaced file
  // must load back the *new* weights.
  Rng rng1(20), rng2(21), rng3(22);
  auto config = SmallConfig(20);
  Seq2SeqTransformer old_model(config, &rng1);
  Seq2SeqTransformer new_model(config, &rng2);
  const std::string path = CheckpointPath("rpt_test_checkpoint_atomic.bin");
  ASSERT_TRUE(SaveCheckpoint(old_model, path).ok());
  ASSERT_TRUE(SaveCheckpoint(new_model, path).ok());
  {
    std::ifstream tmp(path + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good()) << "temp file left behind after rename";
  }
  Seq2SeqTransformer loaded(config, &rng3);
  ASSERT_TRUE(LoadCheckpoint(&loaded, path).ok());
  auto want = new_model.NamedParameters();
  auto got = loaded.NamedParameters();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].second.ToVector(), got[i].second.ToVector())
        << "mismatch at " << want[i].first;
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, PartialWriteNeverShadowsThePreviousCheckpoint) {
  // The crash-mid-write scenario the temp+rename scheme exists for: a
  // truncated ".tmp" sitting next to the real checkpoint must not affect
  // loading under the real name.
  Rng rng1(23), rng2(24);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng1);
  const std::string path = CheckpointPath("rpt_test_checkpoint_partial.bin");
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  {
    // Simulate a writer that died partway through its temp file.
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    const char partial[5] = {'R', 'P', 'T', '1', 0};
    tmp.write(partial, sizeof(partial));
  }
  Seq2SeqTransformer loaded(config, &rng2);
  ASSERT_TRUE(LoadCheckpoint(&loaded, path).ok())
      << "stale temp file corrupted the checkpoint under the real name";
  auto want = model.NamedParameters();
  auto got = loaded.NamedParameters();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].second.ToVector(), got[i].second.ToVector());
  }
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(CheckpointTest, SaveToUnwritableDirectoryFailsCleanly) {
  Rng rng(25);
  Seq2SeqTransformer model(SmallConfig(20), &rng);
  Status s = SaveCheckpoint(model, "/tmp/rpt_no_such_dir/ckpt.bin");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(CheckpointTest, LoadRejectsWrongArchitecture) {
  Rng rng(12);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  const std::string path = CheckpointPath("rpt_test_checkpoint2.bin");
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());

  auto other_config = SmallConfig(21);  // different vocab size
  Seq2SeqTransformer other(other_config, &rng);
  Status s = LoadCheckpoint(&other, path);
  EXPECT_FALSE(s.ok());
  std::remove(path.c_str());
}

// End-to-end: a tiny seq2seq learns the identity (copy) function.
TEST(TrainingTest, Seq2SeqLearnsToCopy) {
  Rng rng(42);
  auto config = SmallConfig(12);
  config.d_model = 32;
  Seq2SeqTransformer model(config, &rng);
  Adam opt(model.Parameters(), 3e-3f);

  const int32_t bos = 1, eos = 2;
  // Training pairs: copy random token sequences (ids 3..11).
  for (int step = 0; step < 150; ++step) {
    std::vector<std::vector<int32_t>> srcs, tgt_in, tgt_out;
    for (int b = 0; b < 8; ++b) {
      std::vector<int32_t> seq;
      const int len = 2 + static_cast<int>(rng.UniformInt(3));
      for (int t = 0; t < len; ++t) {
        seq.push_back(3 + static_cast<int32_t>(rng.UniformInt(9)));
      }
      srcs.push_back(seq);
      std::vector<int32_t> in = {bos};
      in.insert(in.end(), seq.begin(), seq.end());
      std::vector<int32_t> out = seq;
      out.push_back(eos);
      tgt_in.push_back(in);
      tgt_out.push_back(out);
    }
    TokenBatch src = TokenBatch::Pack(srcs, 0);
    TokenBatch tin = TokenBatch::Pack(tgt_in, 0);
    // Flatten targets aligned with tin (pad -> ignore).
    std::vector<int32_t> targets(
        static_cast<size_t>(tin.batch * tin.len), -100);
    for (size_t b = 0; b < tgt_out.size(); ++b) {
      for (size_t t = 0; t < tgt_out[b].size(); ++t) {
        targets[b * static_cast<size_t>(tin.len) + t] = tgt_out[b][t];
      }
    }
    opt.ZeroGrad();
    Tensor logits = model.Forward(src, tin, &rng);
    Tensor flat = Reshape(
        logits, {tin.batch * tin.len, config.vocab_size});
    Tensor loss = CrossEntropyLoss(flat, targets);
    loss.Backward();
    ClipGradNorm(model.Parameters(), 1.0f);
    opt.Step();
  }

  // Evaluate copying on fresh sequences.
  model.SetTraining(false);
  int correct = 0, total = 0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int32_t> seq;
    const int len = 2 + static_cast<int>(rng.UniformInt(3));
    for (int t = 0; t < len; ++t) {
      seq.push_back(3 + static_cast<int32_t>(rng.UniformInt(9)));
    }
    TokenBatch src = TokenBatch::Pack({seq}, 0);
    auto out = model.GenerateGreedy(src, bos, eos, 8, &rng);
    ASSERT_EQ(out.size(), 1u);
    if (out[0] == seq) ++correct;
    ++total;
  }
  EXPECT_GE(correct, 7) << "copy accuracy too low: " << correct << "/"
                        << total;
}

TEST(TrainingTest, BeamSearchMatchesGreedyOnConfidentModel) {
  Rng rng(43);
  auto config = SmallConfig(12);
  Seq2SeqTransformer model(config, &rng);
  Adam opt(model.Parameters(), 3e-3f);
  const int32_t bos = 1, eos = 2;
  // Train a fixed mapping: (3,4) -> (5,6).
  for (int step = 0; step < 120; ++step) {
    TokenBatch src = TokenBatch::Pack({{3, 4}}, 0);
    TokenBatch tin = TokenBatch::Pack({{bos, 5, 6}}, 0);
    std::vector<int32_t> targets = {5, 6, eos};
    opt.ZeroGrad();
    Tensor logits = model.Forward(src, tin, &rng);
    Tensor flat =
        Reshape(logits, {tin.batch * tin.len, config.vocab_size});
    Tensor loss = CrossEntropyLoss(flat, targets);
    loss.Backward();
    opt.Step();
  }
  model.SetTraining(false);
  TokenBatch src = TokenBatch::Pack({{3, 4}}, 0);
  auto greedy = model.GenerateGreedy(src, bos, eos, 6, &rng);
  auto beam = model.GenerateBeam(src, bos, eos, 6, 3, 1, &rng);
  ASSERT_FALSE(beam.empty());
  EXPECT_EQ(greedy[0], beam[0]);
  EXPECT_EQ(greedy[0], (std::vector<int32_t>{5, 6}));
}

TEST(GenerationTest, BeamWidthOneAgreesWithGreedy) {
  // At beam_width=1 beam search degenerates to greedy: both take the argmax
  // continuation each step. Serving leans on batched greedy, so the two
  // must agree even on an untrained (random-weight) model.
  Rng rng(101);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  const int32_t bos = 1, eos = 2;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<int32_t> seq;
    const int len = 2 + static_cast<int>(rng.UniformInt(4));
    for (int t = 0; t < len; ++t) {
      seq.push_back(3 + static_cast<int32_t>(rng.UniformInt(16)));
    }
    TokenBatch src = TokenBatch::Pack({seq}, 0);
    auto greedy = model.GenerateGreedy(src, bos, eos, 8, &rng);
    auto beam = model.GenerateBeam(src, bos, eos, 8, /*beam_width=*/1,
                                   /*num_results=*/1, &rng);
    ASSERT_EQ(greedy.size(), 1u);
    ASSERT_EQ(beam.size(), 1u);
    EXPECT_EQ(greedy[0], beam[0]) << "trial " << trial;
  }
}

TEST(GenerationTest, BatchedGreedyMatchesPerRowGreedy) {
  // The micro-batch path: decoding many ragged sources together (with
  // finished-row compaction) must produce exactly what one-at-a-time
  // decoding produces.
  Rng rng(202);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  const int32_t bos = 1, eos = 2;
  std::vector<std::vector<int32_t>> seqs;
  for (int i = 0; i < 6; ++i) {
    std::vector<int32_t> seq;
    const int len = 1 + static_cast<int>(rng.UniformInt(5));
    for (int t = 0; t < len; ++t) {
      seq.push_back(3 + static_cast<int32_t>(rng.UniformInt(16)));
    }
    seqs.push_back(std::move(seq));
  }
  TokenBatch packed = TokenBatch::Pack(seqs, 0);
  auto batched = model.GenerateGreedy(packed, bos, eos, 8, &rng);
  ASSERT_EQ(batched.size(), seqs.size());
  for (size_t i = 0; i < seqs.size(); ++i) {
    TokenBatch single = TokenBatch::Pack({seqs[i]}, 0);
    auto one = model.GenerateGreedy(single, bos, eos, 8, &rng);
    EXPECT_EQ(batched[i], one[0]) << "row " << i;
  }
}

// ---- Incremental decoding (KV cache) ----------------------------------------

// Reference greedy decode without caches: a full DecodeLogits pass over the
// whole prefix at every step, one row at a time (the pre-KV-cache
// algorithm). Used as ground truth for bit-identity tests.
std::vector<int32_t> ReferenceGreedyOneRow(const Seq2SeqTransformer& model,
                                           const std::vector<int32_t>& seq,
                                           int32_t bos, int32_t eos,
                                           int64_t max_len, Rng* rng) {
  NoGradGuard no_grad;
  TokenBatch src = TokenBatch::Pack({seq}, 0);
  Tensor memory = model.Encode(src, rng);
  const int64_t v = model.config().vocab_size;
  std::vector<int32_t> ids = {bos};
  for (int64_t step = 0; step < max_len; ++step) {
    TokenBatch tgt = TokenBatch::Pack({ids}, 0);
    Tensor logits = model.DecodeLogits(tgt, memory, src.valid, rng);
    const float* row =
        logits.data() + (static_cast<int64_t>(ids.size()) - 1) * v;
    int32_t best = 0;
    for (int64_t c = 1; c < v; ++c) {
      if (row[c] > row[best]) best = static_cast<int32_t>(c);
    }
    if (best == eos) break;
    ids.push_back(best);
  }
  ids.erase(ids.begin());
  return ids;
}

TEST(IncrementalDecodeTest, DecodeStepMatchesFullPassBitExact) {
  // Each DecodeStep must reproduce, bit for bit, the last position of a
  // full teacher-forced DecodeLogits pass over the same prefix — over a
  // ragged (padded) source batch, so the cross-attention key mask is
  // exercised.
  Rng rng(303);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  NoGradGuard no_grad;

  std::vector<std::vector<int32_t>> seqs = {{5, 7, 3, 11}, {4, 9}, {13}};
  TokenBatch src = TokenBatch::Pack(seqs, 0);
  Tensor memory = model.Encode(src, &rng);

  const int64_t batch = src.batch;
  const int64_t v = config.vocab_size;
  DecoderState state = model.BeginDecode(memory, src.valid);
  // Fixed per-row prefixes (uniform length, like real decode batches).
  std::vector<std::vector<int32_t>> prefixes = {{1}, {1}, {1}};
  for (int step = 0; step < 6; ++step) {
    std::vector<int32_t> last;
    for (const auto& p : prefixes) last.push_back(p.back());
    Tensor cached = model.DecodeStep(last, &state, &rng);
    ASSERT_EQ(cached.shape(), (std::vector<int64_t>{batch, v}));

    TokenBatch tgt = TokenBatch::Pack(prefixes, 0);
    Tensor full = model.DecodeLogits(tgt, memory, src.valid, &rng);
    const int64_t t = tgt.len - 1;
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t c = 0; c < v; ++c) {
        // EXPECT_EQ, not NEAR: the cached path must be bit-identical.
        EXPECT_EQ(cached.at(b * v + c), full.at((b * tgt.len + t) * v + c))
            << "step " << step << " row " << b << " vocab " << c;
      }
    }
    // Extend each prefix with a distinct next token.
    for (size_t b = 0; b < prefixes.size(); ++b) {
      prefixes[b].push_back(
          static_cast<int32_t>(3 + (step * prefixes.size() + b) % 15));
    }
  }
}

TEST(IncrementalDecodeTest, CachedGreedyMatchesUncachedReference) {
  // The KV-cached batched GenerateGreedy (with finished-row compaction)
  // must equal the uncached per-row full-pass reference exactly.
  Rng rng(404);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  const int32_t bos = 1, eos = 2;
  std::vector<std::vector<int32_t>> seqs;
  for (int i = 0; i < 6; ++i) {
    std::vector<int32_t> seq;
    const int len = 1 + static_cast<int>(rng.UniformInt(5));
    for (int t = 0; t < len; ++t) {
      seq.push_back(3 + static_cast<int32_t>(rng.UniformInt(16)));
    }
    seqs.push_back(std::move(seq));
  }
  TokenBatch packed = TokenBatch::Pack(seqs, 0);
  auto cached = model.GenerateGreedy(packed, bos, eos, 8, &rng);
  ASSERT_EQ(cached.size(), seqs.size());
  for (size_t i = 0; i < seqs.size(); ++i) {
    auto reference =
        ReferenceGreedyOneRow(model, seqs[i], bos, eos, 8, &rng);
    EXPECT_EQ(cached[i], reference) << "row " << i;
  }
}

TEST(IncrementalDecodeTest, DecoderStateGatherRowsReordersAndReplicates) {
  // GatherRows must reorder, drop, and replicate cache rows exactly:
  // decoding a gathered state must give the same logits rows as the
  // ungathered state (the beam-reordering and greedy-compaction primitive).
  Rng rng(505);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  NoGradGuard no_grad;

  std::vector<std::vector<int32_t>> seqs = {{5, 7, 3}, {4, 9}, {13, 6, 8}};
  TokenBatch src = TokenBatch::Pack(seqs, 0);
  Tensor memory = model.Encode(src, &rng);
  const int64_t v = config.vocab_size;

  DecoderState state = model.BeginDecode(memory, src.valid);
  model.DecodeStep({1, 1, 1}, &state, &rng);
  model.DecodeStep({4, 5, 6}, &state, &rng);

  // Baseline: all three rows, one more step. (DecoderState copies are safe:
  // a copy owns its cache buffers, so in-place appends to one never reach
  // the other — CopiedDecoderStateStaysIndependent checks this.)
  DecoderState baseline = state;
  Tensor all = model.DecodeStep({7, 8, 9}, &baseline, &rng);

  // Reorder + drop: rows {2, 0}.
  DecoderState reordered = state;
  reordered.GatherRows({2, 0});
  EXPECT_EQ(reordered.batch, 2);
  Tensor swapped = model.DecodeStep({9, 7}, &reordered, &rng);
  for (int64_t c = 0; c < v; ++c) {
    EXPECT_EQ(swapped.at(0 * v + c), all.at(2 * v + c)) << "vocab " << c;
    EXPECT_EQ(swapped.at(1 * v + c), all.at(0 * v + c)) << "vocab " << c;
  }

  // Replication: rows {0, 0, 1} (a beam widening from one parent).
  DecoderState replicated = state;
  replicated.GatherRows({0, 0, 1});
  EXPECT_EQ(replicated.batch, 3);
  Tensor rep = model.DecodeStep({7, 7, 8}, &replicated, &rng);
  for (int64_t c = 0; c < v; ++c) {
    EXPECT_EQ(rep.at(0 * v + c), all.at(0 * v + c)) << "vocab " << c;
    EXPECT_EQ(rep.at(1 * v + c), all.at(0 * v + c)) << "vocab " << c;
    EXPECT_EQ(rep.at(2 * v + c), all.at(1 * v + c)) << "vocab " << c;
  }
}

TEST(IncrementalDecodeTest, CopiedDecoderStateStaysIndependent) {
  // DecodeStep writes K/V into the cache in place. A copied state must own
  // its buffers: stepping the copy and the original with different tokens
  // gives each exactly what a fresh decode of its own history gives.
  Rng rng(515);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  NoGradGuard no_grad;
  TokenBatch src = TokenBatch::Pack({{5, 7, 3}, {4, 9}, {13, 6, 8}}, 0);
  Tensor memory = model.Encode(src, &rng);

  const auto decode = [&](const std::vector<std::vector<int32_t>>& steps,
                          DecoderState* state) {
    Tensor logits;
    for (const auto& tokens : steps) {
      logits = model.DecodeStep(tokens, state, &rng);
    }
    return logits;
  };
  const std::vector<std::vector<int32_t>> shared = {
      {1, 1, 1}, {4, 5, 6}, {7, 8, 9}};
  DecoderState original = model.BeginDecode(memory, src.valid);
  decode(shared, &original);
  DecoderState copy = original;
  // Two more steps each: the first fits the current capacity (an in-place
  // write), the second grows it.
  const std::vector<std::vector<int32_t>> tail_a = {{3, 3, 3}, {10, 11, 12}};
  const std::vector<std::vector<int32_t>> tail_b = {{9, 4, 17}, {6, 6, 6}};
  Tensor got_a = decode({tail_a[0]}, &original);
  Tensor got_b = decode({tail_b[0]}, &copy);
  Tensor got_a2 = decode({tail_a[1]}, &original);
  Tensor got_b2 = decode({tail_b[1]}, &copy);

  for (const auto& [tail, got, got2] :
       {std::tuple{tail_a, got_a, got_a2}, std::tuple{tail_b, got_b, got_b2}}) {
    std::vector<std::vector<int32_t>> history = shared;
    history.push_back(tail[0]);
    DecoderState fresh = model.BeginDecode(memory, src.valid);
    Tensor want = decode(history, &fresh);
    Tensor want2 = decode({tail[1]}, &fresh);
    ASSERT_EQ(got.numel(), want.numel());
    for (int64_t i = 0; i < want.numel(); ++i) {
      ASSERT_EQ(got.at(i), want.at(i)) << "element " << i;
      ASSERT_EQ(got2.at(i), want2.at(i)) << "element " << i;
    }
  }
}

TEST(IncrementalDecodeTest, DecodeToMaxSeqLenMatchesFullPassBitExact) {
  // The self-attention cache starts small and grows geometrically; every
  // step up to the position-table limit, across each growth, must still
  // equal the last position of a full DecodeLogits pass bit for bit.
  Rng rng(525);
  auto config = SmallConfig(20);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  NoGradGuard no_grad;
  TokenBatch src = TokenBatch::Pack({{5, 7, 3, 11}, {4, 9}}, 0);
  Tensor memory = model.Encode(src, &rng);
  const int64_t v = config.vocab_size;

  DecoderState state = model.BeginDecode(memory, src.valid);
  std::vector<std::vector<int32_t>> prefixes = {{1}, {1}};
  for (int64_t step = 0; step + 1 < config.max_seq_len; ++step) {
    std::vector<int32_t> last = {prefixes[0].back(), prefixes[1].back()};
    Tensor cached = model.DecodeStep(last, &state, &rng);
    if (step == 0) {
      // Sized to what is cached, not preallocated to max_seq_len.
      EXPECT_LT(state.self_cache[0].capacity, config.max_seq_len);
    }
    ASSERT_GE(state.self_cache[0].capacity, state.self_cache[0].length);
    TokenBatch tgt = TokenBatch::Pack(prefixes, 0);
    Tensor full = model.DecodeLogits(tgt, memory, src.valid, &rng);
    const int64_t t = tgt.len - 1;
    for (int64_t b = 0; b < 2; ++b) {
      for (int64_t c = 0; c < v; ++c) {
        ASSERT_EQ(cached.at(b * v + c), full.at((b * tgt.len + t) * v + c))
            << "step " << step << " row " << b << " vocab " << c;
      }
    }
    for (size_t b = 0; b < prefixes.size(); ++b) {
      prefixes[b].push_back(static_cast<int32_t>(3 + (step + 5 * b) % 17));
    }
  }
  EXPECT_EQ(state.self_cache[0].length, config.max_seq_len - 1);
}

// Reference beam search without caches or early stopping: the pre-KV-cache
// algorithm run to the full length cap. The production GenerateBeam stops
// early only when no active hypothesis can still win, so its top results
// must match this exhaustive reference.
std::vector<std::vector<int32_t>> ReferenceBeam(
    const Seq2SeqTransformer& model, const TokenBatch& src, int32_t bos,
    int32_t eos, int64_t max_len, int64_t beam_width, int64_t num_results,
    Rng* rng) {
  NoGradGuard no_grad;
  Tensor memory = model.Encode(src, rng);
  const int64_t v = model.config().vocab_size;
  struct Hyp {
    std::vector<int32_t> ids;
    double log_prob = 0.0;
  };
  std::vector<Hyp> beam = {Hyp{{bos}, 0.0}};
  std::vector<Hyp> finished;
  for (int64_t step = 0; step < max_len && !beam.empty(); ++step) {
    std::vector<Hyp> candidates;
    for (const auto& h : beam) {
      TokenBatch tgt = TokenBatch::Pack({h.ids}, 0);
      Tensor logits = model.DecodeLogits(tgt, memory, src.valid, rng);
      const float* row =
          logits.data() + (static_cast<int64_t>(h.ids.size()) - 1) * v;
      float mx = row[0];
      for (int64_t c = 1; c < v; ++c) mx = std::max(mx, row[c]);
      double sum = 0.0;
      for (int64_t c = 0; c < v; ++c) sum += std::exp(row[c] - mx);
      const double lse = mx + std::log(sum);
      std::vector<int32_t> order(static_cast<size_t>(v));
      for (int64_t c = 0; c < v; ++c) {
        order[static_cast<size_t>(c)] = static_cast<int32_t>(c);
      }
      std::partial_sort(order.begin(),
                        order.begin() + std::min<int64_t>(beam_width, v),
                        order.end(),
                        [row](int32_t a, int32_t b) { return row[a] > row[b]; });
      for (int64_t k = 0; k < std::min<int64_t>(beam_width, v); ++k) {
        const int32_t tok = order[static_cast<size_t>(k)];
        Hyp next = h;
        next.log_prob += row[tok] - lse;
        if (tok == eos) {
          finished.push_back(next);
        } else {
          next.ids.push_back(tok);
          candidates.push_back(std::move(next));
        }
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Hyp& a, const Hyp& b) { return a.log_prob > b.log_prob; });
    if (static_cast<int64_t>(candidates.size()) > beam_width) {
      candidates.resize(static_cast<size_t>(beam_width));
    }
    beam = std::move(candidates);
  }
  for (const auto& h : beam) finished.push_back(h);
  std::sort(finished.begin(), finished.end(), [](const Hyp& a, const Hyp& b) {
    return a.log_prob / std::max<size_t>(1, a.ids.size()) >
           b.log_prob / std::max<size_t>(1, b.ids.size());
  });
  std::vector<std::vector<int32_t>> out;
  for (const auto& h : finished) {
    if (static_cast<int64_t>(out.size()) >= num_results) break;
    out.emplace_back(h.ids.begin() + 1, h.ids.end());
  }
  return out;
}

TEST(IncrementalDecodeTest, CachedBeamMatchesUncachedReference) {
  // Cached beam search (with state-row gathering on reorder and the
  // provably-safe early stop) against the exhaustive uncached reference.
  Rng rng(606);
  auto config = SmallConfig(16);
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  const int32_t bos = 1, eos = 2;
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<int32_t> seq;
    const int len = 2 + static_cast<int>(rng.UniformInt(4));
    for (int t = 0; t < len; ++t) {
      seq.push_back(3 + static_cast<int32_t>(rng.UniformInt(12)));
    }
    TokenBatch src = TokenBatch::Pack({seq}, 0);
    auto cached = model.GenerateBeam(src, bos, eos, 8, /*beam_width=*/3,
                                     /*num_results=*/2, &rng);
    auto reference =
        ReferenceBeam(model, src, bos, eos, 8, 3, 2, &rng);
    EXPECT_EQ(cached, reference) << "trial " << trial;
  }
}

TEST(GenerationTest, TrainingModeDecodingIsDeterministic) {
  // A model left in training mode must still generate deterministically:
  // the generators force eval (dropout off) internally and restore the
  // caller's mode afterwards.
  Rng rng(707);
  auto config = SmallConfig(20);
  config.dropout = 0.3f;
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(true);
  const int32_t bos = 1, eos = 2;
  TokenBatch src = TokenBatch::Pack({{5, 9, 3}}, 0);

  auto first = model.GenerateGreedy(src, bos, eos, 8, &rng);
  EXPECT_TRUE(model.training()) << "generator must restore training mode";
  auto second = model.GenerateGreedy(src, bos, eos, 8, &rng);
  EXPECT_EQ(first, second) << "training-mode decode applied dropout";

  model.SetTraining(false);
  auto eval_out = model.GenerateGreedy(src, bos, eos, 8, &rng);
  EXPECT_EQ(first, eval_out);
  model.SetTraining(true);

  auto beam1 = model.GenerateBeam(src, bos, eos, 8, 2, 1, &rng);
  auto beam2 = model.GenerateBeam(src, bos, eos, 8, 2, 1, &rng);
  EXPECT_TRUE(model.training());
  EXPECT_EQ(beam1, beam2);
}

TEST(GenerationTest, MaxLenIsClampedToPositionTable) {
  // Asking for more tokens than max_seq_len allows must not trip the
  // position-embedding bounds check; generation just caps at
  // max_seq_len - 1 decoder positions (BOS + generated tokens).
  Rng rng(808);
  auto config = SmallConfig(20);
  config.max_seq_len = 8;
  Seq2SeqTransformer model(config, &rng);
  model.SetTraining(false);
  const int32_t bos = 1;
  // eos = -1: unreachable, so decoding runs to the cap on a random model.
  TokenBatch src = TokenBatch::Pack({{5, 9, 3}, {4, 6}}, 0);
  auto greedy = model.GenerateGreedy(src, bos, /*eos_id=*/-1, 50, &rng);
  ASSERT_EQ(greedy.size(), 2u);
  for (const auto& seq : greedy) {
    EXPECT_LE(seq.size(), 7u);  // max_seq_len - 1
  }
  TokenBatch one = TokenBatch::Pack({{5, 9, 3}}, 0);
  auto beam = model.GenerateBeam(one, bos, /*eos_id=*/-1, 50, 2, 1, &rng);
  ASSERT_EQ(beam.size(), 1u);
  EXPECT_LE(beam[0].size(), 7u);
}

}  // namespace
}  // namespace rpt
