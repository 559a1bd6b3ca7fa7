#include "nn/layers.h"

#include <cmath>

#include "util/logging.h"

namespace rpt {

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng,
               bool bias)
    : in_features_(in_features), out_features_(out_features) {
  // Xavier/Glorot initialization.
  const float scale =
      std::sqrt(2.0f / static_cast<float>(in_features + out_features));
  weight_ = RegisterParameter(
      "weight", Tensor::Randn({in_features, out_features}, scale, rng));
  if (bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros({out_features}));
  }
}

Tensor Linear::Forward(const Tensor& x) const {
  return ForwardAct(x, FusedAct::kNone);
}

Tensor Linear::ForwardAct(const Tensor& x, FusedAct act) const {
  RPT_CHECK_EQ(x.dim(-1), in_features_);
  return MatMulBiasAct(x, weight_, bias_, act);
}

Embedding::Embedding(int64_t num_embeddings, int64_t dim, Rng* rng)
    : num_embeddings_(num_embeddings), dim_(dim) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(dim));
  weight_ = RegisterParameter(
      "weight", Tensor::Randn({num_embeddings, dim}, scale, rng));
}

Tensor Embedding::Forward(const std::vector<int32_t>& ids) const {
  return EmbeddingLookup(weight_, ids);
}

LayerNormLayer::LayerNormLayer(int64_t dim, float eps) : eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor::Full({dim}, 1.0f));
  beta_ = RegisterParameter("beta", Tensor::Zeros({dim}));
}

Tensor LayerNormLayer::Forward(const Tensor& x) const {
  return LayerNorm(x, gamma_, beta_, eps_);
}

Tensor DropoutLayer::Forward(const Tensor& x, Rng* rng) const {
  return Dropout(x, p_, training(), rng);
}

}  // namespace rpt
