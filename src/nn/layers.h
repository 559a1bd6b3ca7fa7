// Basic trainable layers: Linear, Embedding, LayerNorm, Dropout.

#ifndef RPT_NN_LAYERS_H_
#define RPT_NN_LAYERS_H_

#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace rpt {

/// y = x W + b over the last axis of x. Weight is stored as [in, out] so the
/// forward pass is a plain 2-D matmul.
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool bias = true);

  Tensor Forward(const Tensor& x) const;

  /// act(x W + b) through the fused GEMM epilogue. Under autograd this is
  /// the exact MatMul/Add/activation composition; in inference it is a
  /// single dispatched kernel call.
  Tensor ForwardAct(const Tensor& x, FusedAct act) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out], undefined when bias=false
};

/// Trainable token-id -> vector table.
class Embedding : public Module {
 public:
  Embedding(int64_t num_embeddings, int64_t dim, Rng* rng);

  /// ids.size() rows of the table: [ids.size(), dim].
  Tensor Forward(const std::vector<int32_t>& ids) const;

  int64_t num_embeddings() const { return num_embeddings_; }
  int64_t dim() const { return dim_; }
  const Tensor& weight() const { return weight_; }

 private:
  int64_t num_embeddings_;
  int64_t dim_;
  Tensor weight_;  // [num_embeddings, dim]
};

/// Learnable layer normalization over the last axis.
class LayerNormLayer : public Module {
 public:
  explicit LayerNormLayer(int64_t dim, float eps = 1e-5f);

  Tensor Forward(const Tensor& x) const;

 private:
  float eps_;
  Tensor gamma_;
  Tensor beta_;
};

/// Inverted dropout driven by the module train/eval flag.
class DropoutLayer : public Module {
 public:
  explicit DropoutLayer(float p) : p_(p) {}

  Tensor Forward(const Tensor& x, Rng* rng) const;

  /// True when Forward drops anything (training mode and p > 0).
  bool active() const { return training() && p_ > 0.0f; }

 private:
  float p_;
};

}  // namespace rpt

#endif  // RPT_NN_LAYERS_H_
