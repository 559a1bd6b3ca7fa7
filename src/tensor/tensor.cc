#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_set>

#include "tensor/gemm.h"
#include "util/logging.h"

namespace rpt {

namespace internal {

struct TensorImpl {
  std::vector<int64_t> shape;
  // Element storage. `data` points either at `owned` (the self-owned case;
  // every tensor produced by an op) or into external memory kept alive by
  // `storage` (a view bound to a shared weight blob — see Tensor::BindTo).
  // External storage is immutable by contract: views never require grad and
  // must not be written through.
  float* data = nullptr;
  size_t size = 0;
  std::vector<float> owned;
  std::shared_ptr<const void> storage;
  std::vector<float> grad;  // empty until first accumulation
  bool requires_grad = false;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void()> backward_fn;  // reads own grad, writes parents' grads

  int64_t numel() const {
    int64_t n = 1;
    for (int64_t d : shape) n *= d;
    return n;
  }

  bool is_view() const { return storage != nullptr; }

  void ResetOwned(size_t n, float value) {
    storage.reset();
    owned.assign(n, value);
    data = owned.data();
    size = n;
  }

  void AdoptOwned(std::vector<float> values) {
    storage.reset();
    owned = std::move(values);
    data = owned.data();
    size = owned.size();
  }

  void EnsureGrad() {
    if (grad.empty()) grad.assign(size, 0.0f);
  }
};

}  // namespace internal

using internal::TensorImpl;

namespace {

thread_local bool g_autograd_enabled = true;

int64_t ShapeNumel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    RPT_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::shared_ptr<TensorImpl> NewImpl(std::vector<int64_t> shape) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->ResetOwned(static_cast<size_t>(ShapeNumel(impl->shape)), 0.0f);
  return impl;
}

// Builds the output impl of an op and decides whether to track gradients;
// AttachBackward adds the closure only when it does. Parents that do not
// require grad are still recorded so the backward closure can read their
// data.
Tensor MakeOpResult(std::vector<int64_t> shape,
                    std::vector<std::shared_ptr<TensorImpl>> parents) {
  auto impl = NewImpl(std::move(shape));
  bool track = g_autograd_enabled;
  if (track) {
    bool any = false;
    for (const auto& p : parents) {
      if (p->requires_grad) {
        any = true;
        break;
      }
    }
    track = any;
  }
  if (track) {
    impl->requires_grad = true;
    impl->parents = std::move(parents);
  }
  return Tensor(impl);
}

// Attaches the backward closure when the result tracks gradients.
void AttachBackward(const Tensor& result, std::function<void()> fn) {
  if (result.impl()->requires_grad && !result.impl()->parents.empty()) {
    result.impl()->backward_fn = std::move(fn);
  }
}

enum class BroadcastKind { kSame, kSuffix, kScalar };

BroadcastKind ClassifyBroadcast(const std::vector<int64_t>& a,
                                const std::vector<int64_t>& b) {
  if (a == b) return BroadcastKind::kSame;
  if (ShapeNumel(b) == 1) return BroadcastKind::kScalar;
  // b must be a trailing suffix of a.
  RPT_CHECK_LE(b.size(), a.size()) << "broadcast shape mismatch";
  size_t offset = a.size() - b.size();
  for (size_t i = 0; i < b.size(); ++i) {
    RPT_CHECK_EQ(a[offset + i], b[i]) << "broadcast shape mismatch";
  }
  return BroadcastKind::kSuffix;
}

}  // namespace

NoGradGuard::NoGradGuard() : prev_(g_autograd_enabled) {
  g_autograd_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_autograd_enabled = prev_; }

bool AutogradEnabled() { return g_autograd_enabled; }

// ---- Tensor methods --------------------------------------------------------

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  return Tensor(NewImpl(std::move(shape)));
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  auto impl = NewImpl(std::move(shape));
  std::fill(impl->data, impl->data + impl->size, value);
  return Tensor(impl);
}

Tensor Tensor::FromVector(std::vector<float> values,
                          std::vector<int64_t> shape) {
  RPT_CHECK_EQ(static_cast<int64_t>(values.size()), ShapeNumel(shape));
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->AdoptOwned(std::move(values));
  return Tensor(impl);
}

Tensor Tensor::Randn(std::vector<int64_t> shape, float stddev, Rng* rng) {
  auto impl = NewImpl(std::move(shape));
  for (size_t i = 0; i < impl->size; ++i) {
    impl->data[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return Tensor(impl);
}

Tensor Tensor::Uniform(std::vector<int64_t> shape, float lo, float hi,
                       Rng* rng) {
  auto impl = NewImpl(std::move(shape));
  for (size_t i = 0; i < impl->size; ++i) {
    impl->data[i] = rng->UniformFloat(lo, hi);
  }
  return Tensor(impl);
}

const std::vector<int64_t>& Tensor::shape() const {
  RPT_CHECK(impl_ != nullptr);
  return impl_->shape;
}

int64_t Tensor::ndim() const {
  return static_cast<int64_t>(shape().size());
}

int64_t Tensor::dim(int64_t axis) const {
  const auto& s = shape();
  if (axis < 0) axis += static_cast<int64_t>(s.size());
  RPT_CHECK_GE(axis, 0);
  RPT_CHECK_LT(axis, static_cast<int64_t>(s.size()));
  return s[static_cast<size_t>(axis)];
}

int64_t Tensor::numel() const {
  RPT_CHECK(impl_ != nullptr);
  return impl_->numel();
}

float* Tensor::data() {
  RPT_CHECK(impl_ != nullptr);
  return impl_->data;
}

const float* Tensor::data() const {
  RPT_CHECK(impl_ != nullptr);
  return impl_->data;
}

float* Tensor::grad_data() {
  RPT_CHECK(impl_ != nullptr);
  RPT_CHECK(!impl_->grad.empty()) << "gradient not allocated";
  return impl_->grad.data();
}

const float* Tensor::grad_data() const {
  RPT_CHECK(impl_ != nullptr);
  RPT_CHECK(!impl_->grad.empty()) << "gradient not allocated";
  return impl_->grad.data();
}

bool Tensor::has_grad() const {
  return impl_ != nullptr && !impl_->grad.empty();
}

bool Tensor::requires_grad() const {
  RPT_CHECK(impl_ != nullptr);
  return impl_->requires_grad;
}

Tensor& Tensor::set_requires_grad(bool value) {
  RPT_CHECK(impl_ != nullptr);
  RPT_CHECK(!(value && impl_->is_view()))
      << "a view of shared weight storage cannot require grad";
  impl_->requires_grad = value;
  return *this;
}

float Tensor::item() const {
  RPT_CHECK_EQ(numel(), 1);
  return impl_->data[0];
}

float Tensor::at(int64_t flat_index) const {
  RPT_CHECK_GE(flat_index, 0);
  RPT_CHECK_LT(flat_index, numel());
  return impl_->data[static_cast<size_t>(flat_index)];
}

std::vector<float> Tensor::ToVector() const {
  RPT_CHECK(impl_ != nullptr);
  return std::vector<float>(impl_->data, impl_->data + impl_->size);
}

bool Tensor::is_view() const {
  return impl_ != nullptr && impl_->is_view();
}

void Tensor::BindTo(std::shared_ptr<const void> keepalive, const float* data) {
  RPT_CHECK(impl_ != nullptr);
  RPT_CHECK(keepalive != nullptr);
  RPT_CHECK(data != nullptr);
  // The blob is immutable; const_cast is confined here and guarded by the
  // view contract (requires_grad forced off, callers must not write).
  impl_->data = const_cast<float*>(data);
  impl_->size = static_cast<size_t>(impl_->numel());
  impl_->storage = std::move(keepalive);
  std::vector<float>().swap(impl_->owned);
  std::vector<float>().swap(impl_->grad);
  impl_->requires_grad = false;
}

Tensor Tensor::FromExternal(std::shared_ptr<const void> keepalive,
                            const float* data, std::vector<int64_t> shape) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  Tensor t(impl);
  t.BindTo(std::move(keepalive), data);
  return t;
}

std::string Tensor::DebugString() const {
  if (impl_ == nullptr) return "Tensor(undefined)";
  std::ostringstream out;
  out << "Tensor([";
  for (size_t i = 0; i < impl_->shape.size(); ++i) {
    if (i > 0) out << ", ";
    out << impl_->shape[i];
  }
  out << "], data=[";
  const int64_t n = std::min<int64_t>(numel(), 8);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) out << ", ";
    out << impl_->data[static_cast<size_t>(i)];
  }
  if (numel() > n) out << ", ...";
  out << "])";
  return out.str();
}

void Tensor::Backward() {
  RPT_CHECK(impl_ != nullptr);
  RPT_CHECK_EQ(numel(), 1) << "Backward() requires a scalar loss";
  RPT_CHECK(impl_->requires_grad)
      << "Backward() on a tensor that does not require grad";
  impl_->EnsureGrad();
  impl_->grad[0] = 1.0f;

  // Iterative post-order DFS to get a topological order of the graph.
  std::vector<TensorImpl*> topo;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      TensorImpl* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      topo.push_back(node);
      stack.pop_back();
    }
  }
  // topo is in post-order (leaves first); walk it back-to-front.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn && !node->grad.empty()) {
      node->backward_fn();
    }
  }
  // Release the graph so intermediate buffers can be reclaimed. Leaves keep
  // their grads; interior nodes are owned by the graph and expire naturally.
  for (TensorImpl* node : topo) {
    node->backward_fn = nullptr;
    node->parents.clear();
  }
}

void Tensor::ZeroGrad() {
  RPT_CHECK(impl_ != nullptr);
  std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
}

Tensor Tensor::Detach() const {
  RPT_CHECK(impl_ != nullptr);
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = impl_->shape;
  impl->AdoptOwned(std::vector<float>(impl_->data, impl_->data + impl_->size));
  return Tensor(impl);
}

// ---- Binary elementwise ops -------------------------------------------------

namespace {

// Shared implementation of Add/Sub/Mul with suffix/scalar broadcasting.
enum class BinaryOp { kAdd, kSub, kMul };

Tensor BinaryElementwise(const Tensor& a, const Tensor& b, BinaryOp op) {
  RPT_CHECK(a.defined() && b.defined());
  const auto kind = ClassifyBroadcast(a.shape(), b.shape());
  auto ai = a.impl();
  auto bi = b.impl();
  Tensor out = MakeOpResult(a.shape(), {ai, bi});
  auto oi = out.impl();
  const int64_t n = a.numel();
  const int64_t bn = b.numel();
  const float* ad = ai->data;
  const float* bd = bi->data;
  float* od = oi->data;
  switch (op) {
    case BinaryOp::kAdd:
      if (kind == BroadcastKind::kScalar) {
        const float s = bd[0];
        for (int64_t i = 0; i < n; ++i) od[i] = ad[i] + s;
      } else {
        for (int64_t i = 0; i < n; ++i) od[i] = ad[i] + bd[i % bn];
      }
      break;
    case BinaryOp::kSub:
      if (kind == BroadcastKind::kScalar) {
        const float s = bd[0];
        for (int64_t i = 0; i < n; ++i) od[i] = ad[i] - s;
      } else {
        for (int64_t i = 0; i < n; ++i) od[i] = ad[i] - bd[i % bn];
      }
      break;
    case BinaryOp::kMul:
      if (kind == BroadcastKind::kScalar) {
        const float s = bd[0];
        for (int64_t i = 0; i < n; ++i) od[i] = ad[i] * s;
      } else {
        for (int64_t i = 0; i < n; ++i) od[i] = ad[i] * bd[i % bn];
      }
      break;
  }
  AttachBackward(out, [oi, ai, bi, op, n, bn]() {
    const float* g = oi->grad.data();
    if (ai->requires_grad) {
      ai->EnsureGrad();
      float* ga = ai->grad.data();
      const float* bd = bi->data;
      switch (op) {
        case BinaryOp::kAdd:
          for (int64_t i = 0; i < n; ++i) ga[i] += g[i];
          break;
        case BinaryOp::kSub:
          for (int64_t i = 0; i < n; ++i) ga[i] += g[i];
          break;
        case BinaryOp::kMul:
          for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * bd[i % bn];
          break;
      }
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      float* gb = bi->grad.data();
      const float* ad = ai->data;
      switch (op) {
        case BinaryOp::kAdd:
          for (int64_t i = 0; i < n; ++i) gb[i % bn] += g[i];
          break;
        case BinaryOp::kSub:
          for (int64_t i = 0; i < n; ++i) gb[i % bn] -= g[i];
          break;
        case BinaryOp::kMul:
          for (int64_t i = 0; i < n; ++i) gb[i % bn] += g[i] * ad[i];
          break;
      }
    }
  });
  return out;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryElementwise(a, b, BinaryOp::kAdd);
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryElementwise(a, b, BinaryOp::kSub);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryElementwise(a, b, BinaryOp::kMul);
}

Tensor Scale(const Tensor& a, float scalar) {
  auto ai = a.impl();
  Tensor out = MakeOpResult(a.shape(), {ai});
  auto oi = out.impl();
  const int64_t n = a.numel();
  const float* ad = ai->data;
  float* od = oi->data;
  for (int64_t i = 0; i < n; ++i) od[i] = ad[i] * scalar;
  AttachBackward(out, [oi, ai, scalar, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float* g = oi->grad.data();
    float* ga = ai->grad.data();
    for (int64_t i = 0; i < n; ++i) ga[i] += g[i] * scalar;
  });
  return out;
}

Tensor AddScalar(const Tensor& a, float scalar) {
  auto ai = a.impl();
  Tensor out = MakeOpResult(a.shape(), {ai});
  auto oi = out.impl();
  const int64_t n = a.numel();
  const float* ad = ai->data;
  float* od = oi->data;
  for (int64_t i = 0; i < n; ++i) od[i] = ad[i] + scalar;
  AttachBackward(out, [oi, ai, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float* g = oi->grad.data();
    float* ga = ai->grad.data();
    for (int64_t i = 0; i < n; ++i) ga[i] += g[i];
  });
  return out;
}

// ---- MatMul ------------------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  RPT_CHECK(a.defined() && b.defined());
  RPT_CHECK_GE(a.ndim(), 2);
  auto ai = a.impl();
  auto bi = b.impl();

  const auto& ash = a.shape();
  const auto& bsh = b.shape();
  const int64_t k = ash.back();
  const int64_t m_rows = ash[ash.size() - 2];

  if (b.ndim() == 2) {
    // [..., M, K] x [K, N]
    RPT_CHECK_EQ(bsh[0], k) << "MatMul inner dimension mismatch";
    const int64_t n_cols = bsh[1];
    std::vector<int64_t> out_shape = ash;
    out_shape.back() = n_cols;
    const int64_t rows = a.numel() / k;  // flatten all leading dims
    Tensor out = MakeOpResult(out_shape, {ai, bi});
    auto oi = out.impl();
    GemmNN(ai->data, bi->data, oi->data, rows, k,
           n_cols);
    AttachBackward(out, [oi, ai, bi, rows, k, n_cols]() {
      const float* g = oi->grad.data();
      if (ai->requires_grad) {
        ai->EnsureGrad();
        // dA [rows,K] += dOut [rows,N] * B^T [N,K]
        GemmNT(g, bi->data, ai->grad.data(), rows, n_cols, k);
      }
      if (bi->requires_grad) {
        bi->EnsureGrad();
        // dB [K,N] += A^T [K,rows] * dOut [rows,N]
        GemmTN(ai->data, g, bi->grad.data(), rows, k, n_cols);
      }
    });
    return out;
  }

  // Batched: identical leading dims.
  RPT_CHECK_EQ(a.ndim(), b.ndim()) << "batched MatMul rank mismatch";
  for (size_t i = 0; i + 2 < ash.size(); ++i) {
    RPT_CHECK_EQ(ash[i], bsh[i]) << "batched MatMul batch-dim mismatch";
  }
  RPT_CHECK_EQ(bsh[bsh.size() - 2], k) << "MatMul inner dimension mismatch";
  const int64_t n_cols = bsh.back();
  int64_t batch = 1;
  for (size_t i = 0; i + 2 < ash.size(); ++i) batch *= ash[i];
  std::vector<int64_t> out_shape = ash;
  out_shape.back() = n_cols;
  Tensor out = MakeOpResult(out_shape, {ai, bi});
  auto oi = out.impl();
  const int64_t a_stride = m_rows * k;
  const int64_t b_stride = k * n_cols;
  const int64_t o_stride = m_rows * n_cols;
  for (int64_t s = 0; s < batch; ++s) {
    GemmNN(ai->data + s * a_stride, bi->data + s * b_stride,
           oi->data + s * o_stride, m_rows, k, n_cols);
  }
  AttachBackward(out, [oi, ai, bi, batch, m_rows, k, n_cols, a_stride,
                       b_stride, o_stride]() {
    const float* g = oi->grad.data();
    if (ai->requires_grad) {
      ai->EnsureGrad();
      for (int64_t s = 0; s < batch; ++s) {
        GemmNT(g + s * o_stride, bi->data + s * b_stride,
               ai->grad.data() + s * a_stride, m_rows, n_cols, k);
      }
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      for (int64_t s = 0; s < batch; ++s) {
        GemmTN(ai->data + s * a_stride, g + s * o_stride,
               bi->grad.data() + s * b_stride, m_rows, k, n_cols);
      }
    }
  });
  return out;
}

Tensor MatMulBiasAct(const Tensor& a, const Tensor& w, const Tensor& bias,
                     FusedAct act) {
  RPT_CHECK(a.defined() && w.defined());
  RPT_CHECK_EQ(w.ndim(), 2);
  const int64_t k = a.shape().back();
  RPT_CHECK_EQ(w.dim(0), k) << "MatMulBiasAct inner dimension mismatch";
  const int64_t n_cols = w.dim(1);
  if (bias.defined()) RPT_CHECK_EQ(bias.numel(), n_cols);

  const bool tracked =
      g_autograd_enabled &&
      (a.impl()->requires_grad || w.impl()->requires_grad ||
       (bias.defined() && bias.impl()->requires_grad));
  const bool fusable = !tracked && (bias.defined() || act == FusedAct::kNone);
  if (!fusable) {
    // Exact composition: training graphs and gradients are unchanged.
    Tensor y = MatMul(a, w);
    if (bias.defined()) y = Add(y, bias);
    switch (act) {
      case FusedAct::kNone:
        return y;
      case FusedAct::kRelu:
        return Relu(y);
      case FusedAct::kGelu:
        return Gelu(y);
    }
    return y;
  }

  std::vector<int64_t> out_shape = a.shape();
  out_shape.back() = n_cols;
  const int64_t rows = a.numel() / k;
  Tensor out = Tensor::Zeros(std::move(out_shape));
  GemmEpilogue epilogue = GemmEpilogue::kNone;
  if (bias.defined()) {
    switch (act) {
      case FusedAct::kNone:
        epilogue = GemmEpilogue::kBias;
        break;
      case FusedAct::kRelu:
        epilogue = GemmEpilogue::kBiasRelu;
        break;
      case FusedAct::kGelu:
        epilogue = GemmEpilogue::kBiasGelu;
        break;
    }
  }
  GemmNNEx(a.data(), w.data(), bias.defined() ? bias.data() : nullptr,
           out.data(), rows, k, n_cols, epilogue);
  return out;
}

// ---- Activations --------------------------------------------------------------

namespace {

Tensor UnaryOp(const Tensor& a, const std::function<float(float)>& fwd,
               const std::function<float(float, float)>& dydx_from_x_y) {
  auto ai = a.impl();
  Tensor out = MakeOpResult(a.shape(), {ai});
  auto oi = out.impl();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    oi->data[static_cast<size_t>(i)] =
        fwd(ai->data[static_cast<size_t>(i)]);
  }
  AttachBackward(out, [oi, ai, dydx_from_x_y, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float* g = oi->grad.data();
    const float* x = ai->data;
    const float* y = oi->data;
    float* ga = ai->grad.data();
    for (int64_t i = 0; i < n; ++i) {
      ga[i] += g[i] * dydx_from_x_y(x[i], y[i]);
    }
  });
  return out;
}

}  // namespace

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Gelu(const Tensor& a) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  constexpr float kCoef = 0.044715f;
  return UnaryOp(
      a,
      [](float x) {
        float inner = kSqrt2OverPi * (x + kCoef * x * x * x);
        return 0.5f * x * (1.0f + std::tanh(inner));
      },
      [](float x, float) {
        float x3 = x * x * x;
        float inner = kSqrt2OverPi * (x + kCoef * x3);
        float t = std::tanh(inner);
        float dinner = kSqrt2OverPi * (1.0f + 3.0f * kCoef * x * x);
        return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
      });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

// ---- Softmax / LayerNorm -------------------------------------------------------

Tensor Softmax(const Tensor& a) {
  auto ai = a.impl();
  Tensor out = MakeOpResult(a.shape(), {ai});
  auto oi = out.impl();
  const int64_t cols = a.dim(-1);
  const int64_t rows = a.numel() / cols;
  SoftmaxRows(ai->data, oi->data, rows, cols);
  AttachBackward(out, [oi, ai, rows, cols]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int64_t r = 0; r < rows; ++r) {
      const float* y = oi->data + r * cols;
      const float* g = oi->grad.data() + r * cols;
      float* ga = ai->grad.data() + r * cols;
      float dot = 0.0f;
      for (int64_t c = 0; c < cols; ++c) dot += y[c] * g[c];
      for (int64_t c = 0; c < cols; ++c) {
        ga[c] += y[c] * (g[c] - dot);
      }
    }
  });
  return out;
}

Tensor LogSoftmax(const Tensor& a) {
  auto ai = a.impl();
  Tensor out = MakeOpResult(a.shape(), {ai});
  auto oi = out.impl();
  const int64_t cols = a.dim(-1);
  const int64_t rows = a.numel() / cols;
  LogSoftmaxRows(ai->data, oi->data, rows, cols);
  AttachBackward(out, [oi, ai, rows, cols]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int64_t r = 0; r < rows; ++r) {
      const float* y = oi->data + r * cols;
      const float* g = oi->grad.data() + r * cols;
      float* ga = ai->grad.data() + r * cols;
      float gsum = 0.0f;
      for (int64_t c = 0; c < cols; ++c) gsum += g[c];
      for (int64_t c = 0; c < cols; ++c) {
        ga[c] += g[c] - std::exp(y[c]) * gsum;
      }
    }
  });
  return out;
}

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  auto xi = x.impl();
  auto gi = gamma.impl();
  auto bi = beta.impl();
  const int64_t cols = x.dim(-1);
  RPT_CHECK_EQ(gamma.numel(), cols);
  RPT_CHECK_EQ(beta.numel(), cols);
  const int64_t rows = x.numel() / cols;
  Tensor out = MakeOpResult(x.shape(), {xi, gi, bi});
  auto oi = out.impl();
  // Cache per-row mean and inverse stddev for the backward pass.
  auto stats = std::make_shared<std::vector<float>>(
      static_cast<size_t>(rows) * 2);
  LayerNormRows(xi->data, gi->data, bi->data,
                oi->data, stats->data(), rows, cols, eps);
  AttachBackward(out, [oi, xi, gi, bi, stats, rows, cols]() {
    const float* g = oi->grad.data();
    if (gi->requires_grad) gi->EnsureGrad();
    if (bi->requires_grad) bi->EnsureGrad();
    if (xi->requires_grad) xi->EnsureGrad();
    const float* gd = gi->data;
    for (int64_t r = 0; r < rows; ++r) {
      const float mean = (*stats)[static_cast<size_t>(r) * 2];
      const float inv_std = (*stats)[static_cast<size_t>(r) * 2 + 1];
      const float* xr = xi->data + r * cols;
      const float* gr = g + r * cols;
      // dgamma/dbeta.
      if (gi->requires_grad) {
        float* gg = gi->grad.data();
        for (int64_t c = 0; c < cols; ++c) {
          gg[c] += gr[c] * (xr[c] - mean) * inv_std;
        }
      }
      if (bi->requires_grad) {
        float* gb = bi->grad.data();
        for (int64_t c = 0; c < cols; ++c) gb[c] += gr[c];
      }
      if (xi->requires_grad) {
        // Let h = (x - mean) * inv_std, dy/dh = gamma.
        // dx = inv_std * (dh - mean(dh) - h * mean(dh * h)).
        float* gx = xi->grad.data() + r * cols;
        float mean_dh = 0.0f;
        float mean_dh_h = 0.0f;
        for (int64_t c = 0; c < cols; ++c) {
          const float h = (xr[c] - mean) * inv_std;
          const float dh = gr[c] * gd[c];
          mean_dh += dh;
          mean_dh_h += dh * h;
        }
        mean_dh /= static_cast<float>(cols);
        mean_dh_h /= static_cast<float>(cols);
        for (int64_t c = 0; c < cols; ++c) {
          const float h = (xr[c] - mean) * inv_std;
          const float dh = gr[c] * gd[c];
          gx[c] += inv_std * (dh - mean_dh - h * mean_dh_h);
        }
      }
    }
  });
  return out;
}

// ---- Shape ops -------------------------------------------------------------------

Tensor Reshape(const Tensor& a, std::vector<int64_t> shape) {
  RPT_CHECK_EQ(ShapeNumel(shape), a.numel()) << "Reshape numel mismatch";
  auto ai = a.impl();
  Tensor out = MakeOpResult(std::move(shape), {ai});
  auto oi = out.impl();
  std::memcpy(oi->data, ai->data, oi->size * sizeof(float));
  const int64_t n = a.numel();
  AttachBackward(out, [oi, ai, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float* g = oi->grad.data();
    float* ga = ai->grad.data();
    for (int64_t i = 0; i < n; ++i) ga[i] += g[i];
  });
  return out;
}

namespace {

// Computes row-major strides.
std::vector<int64_t> Strides(const std::vector<int64_t>& shape) {
  std::vector<int64_t> strides(shape.size(), 1);
  for (int64_t i = static_cast<int64_t>(shape.size()) - 2; i >= 0; --i) {
    strides[static_cast<size_t>(i)] =
        strides[static_cast<size_t>(i) + 1] * shape[static_cast<size_t>(i) + 1];
  }
  return strides;
}

}  // namespace

Tensor Transpose(const Tensor& a, int64_t axis0, int64_t axis1) {
  const auto& ash = a.shape();
  const int64_t nd = a.ndim();
  if (axis0 < 0) axis0 += nd;
  if (axis1 < 0) axis1 += nd;
  RPT_CHECK(axis0 >= 0 && axis0 < nd && axis1 >= 0 && axis1 < nd);
  std::vector<int64_t> out_shape = ash;
  std::swap(out_shape[static_cast<size_t>(axis0)],
            out_shape[static_cast<size_t>(axis1)]);
  auto ai = a.impl();
  Tensor out = MakeOpResult(out_shape, {ai});
  auto oi = out.impl();

  const auto in_strides = Strides(ash);
  const int64_t n = a.numel();
  // For each output flat index (enumerated via the output multi-index),
  // compute the corresponding input flat index. Captures everything by
  // value so the closure stays valid for the deferred backward pass.
  auto permute = [in_strides, out_shape, nd, axis0, axis1, n](
                     const float* src, float* dst, bool accumulate) {
    std::vector<int64_t> idx(static_cast<size_t>(nd), 0);
    for (int64_t flat = 0; flat < n; ++flat) {
      // idx currently holds the *output* multi-index.
      int64_t src_flat = 0;
      for (int64_t d = 0; d < nd; ++d) {
        int64_t src_d = d;
        if (d == axis0) {
          src_d = axis1;
        } else if (d == axis1) {
          src_d = axis0;
        }
        src_flat += idx[static_cast<size_t>(d)] *
                    in_strides[static_cast<size_t>(src_d)];
      }
      if (accumulate) {
        dst[src_flat] += src[flat];
      } else {
        dst[flat] = src[src_flat];
      }
      // Increment the output multi-index.
      for (int64_t d = nd - 1; d >= 0; --d) {
        if (++idx[static_cast<size_t>(d)] <
            out_shape[static_cast<size_t>(d)]) {
          break;
        }
        idx[static_cast<size_t>(d)] = 0;
      }
    }
  };
  permute(ai->data, oi->data, /*accumulate=*/false);
  AttachBackward(out, [oi, ai, permute]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    permute(oi->grad.data(), ai->grad.data(), /*accumulate=*/true);
  });
  return out;
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t end) {
  const auto& ash = a.shape();
  const int64_t nd = a.ndim();
  if (axis < 0) axis += nd;
  RPT_CHECK(axis >= 0 && axis < nd);
  const int64_t dim_size = ash[static_cast<size_t>(axis)];
  RPT_CHECK(start >= 0 && start <= end && end <= dim_size)
      << "Slice range [" << start << ", " << end << ") out of [0, "
      << dim_size << ")";
  std::vector<int64_t> out_shape = ash;
  out_shape[static_cast<size_t>(axis)] = end - start;

  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= ash[static_cast<size_t>(d)];
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < nd; ++d) {
    inner *= ash[static_cast<size_t>(d)];
  }
  const int64_t len = end - start;

  auto ai = a.impl();
  Tensor out = MakeOpResult(out_shape, {ai});
  auto oi = out.impl();
  for (int64_t o = 0; o < outer; ++o) {
    const float* src =
        ai->data + (o * dim_size + start) * inner;
    float* dst = oi->data + o * len * inner;
    std::memcpy(dst, src, static_cast<size_t>(len * inner) * sizeof(float));
  }
  AttachBackward(out, [oi, ai, outer, inner, dim_size, start, len]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int64_t o = 0; o < outer; ++o) {
      const float* g = oi->grad.data() + o * len * inner;
      float* ga = ai->grad.data() + (o * dim_size + start) * inner;
      for (int64_t i = 0; i < len * inner; ++i) ga[i] += g[i];
    }
  });
  return out;
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  RPT_CHECK(!parts.empty());
  const int64_t nd = parts[0].ndim();
  if (axis < 0) axis += nd;
  RPT_CHECK(axis >= 0 && axis < nd);
  std::vector<int64_t> out_shape = parts[0].shape();
  int64_t cat_dim = 0;
  for (const auto& p : parts) {
    RPT_CHECK_EQ(p.ndim(), nd);
    for (int64_t d = 0; d < nd; ++d) {
      if (d != axis) {
        RPT_CHECK_EQ(p.shape()[static_cast<size_t>(d)],
                     out_shape[static_cast<size_t>(d)]);
      }
    }
    cat_dim += p.dim(axis);
  }
  out_shape[static_cast<size_t>(axis)] = cat_dim;

  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) {
    outer *= out_shape[static_cast<size_t>(d)];
  }
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < nd; ++d) {
    inner *= out_shape[static_cast<size_t>(d)];
  }

  std::vector<std::shared_ptr<TensorImpl>> parents;
  parents.reserve(parts.size());
  for (const auto& p : parts) parents.push_back(p.impl());
  Tensor out = MakeOpResult(out_shape, parents);
  auto oi = out.impl();

  std::vector<int64_t> part_lens;
  part_lens.reserve(parts.size());
  for (const auto& p : parts) part_lens.push_back(p.dim(axis));

  int64_t offset = 0;
  for (size_t pi = 0; pi < parts.size(); ++pi) {
    const float* src = parts[pi].impl()->data;
    const int64_t len = part_lens[pi];
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(oi->data + (o * cat_dim + offset) * inner,
                  src + o * len * inner,
                  static_cast<size_t>(len * inner) * sizeof(float));
    }
    offset += len;
  }
  AttachBackward(out, [oi, parents, part_lens, outer, inner, cat_dim]() {
    int64_t offset = 0;
    for (size_t pi = 0; pi < parents.size(); ++pi) {
      const int64_t len = part_lens[pi];
      auto& parent = parents[pi];
      if (parent->requires_grad) {
        parent->EnsureGrad();
        for (int64_t o = 0; o < outer; ++o) {
          const float* g =
              oi->grad.data() + (o * cat_dim + offset) * inner;
          float* ga = parent->grad.data() + o * len * inner;
          for (int64_t i = 0; i < len * inner; ++i) ga[i] += g[i];
        }
      }
      offset += len;
    }
  });
  return out;
}

// ---- Embedding ---------------------------------------------------------------------

Tensor EmbeddingLookup(const Tensor& weight,
                       const std::vector<int32_t>& ids) {
  RPT_CHECK_EQ(weight.ndim(), 2);
  const int64_t vocab = weight.dim(0);
  const int64_t dim = weight.dim(1);
  auto wi = weight.impl();
  Tensor out =
      MakeOpResult({static_cast<int64_t>(ids.size()), dim}, {wi});
  auto oi = out.impl();
  for (size_t i = 0; i < ids.size(); ++i) {
    const int32_t id = ids[i];
    RPT_CHECK(id >= 0 && id < vocab) << "embedding id " << id
                                     << " out of range [0, " << vocab << ")";
    std::memcpy(oi->data + static_cast<int64_t>(i) * dim,
                wi->data + static_cast<int64_t>(id) * dim,
                static_cast<size_t>(dim) * sizeof(float));
  }
  auto ids_copy = std::make_shared<std::vector<int32_t>>(ids);
  AttachBackward(out, [oi, wi, ids_copy, dim]() {
    if (!wi->requires_grad) return;
    wi->EnsureGrad();
    for (size_t i = 0; i < ids_copy->size(); ++i) {
      const float* g = oi->grad.data() + static_cast<int64_t>(i) * dim;
      float* gw = wi->grad.data() +
                  static_cast<int64_t>((*ids_copy)[i]) * dim;
      for (int64_t d = 0; d < dim; ++d) gw[d] += g[d];
    }
  });
  return out;
}

// ---- Reductions / losses --------------------------------------------------------------

Tensor Sum(const Tensor& a) {
  auto ai = a.impl();
  Tensor out = MakeOpResult({1}, {ai});
  auto oi = out.impl();
  double acc = 0.0;
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) {
    acc += ai->data[static_cast<size_t>(i)];
  }
  oi->data[0] = static_cast<float>(acc);
  AttachBackward(out, [oi, ai, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float g = oi->grad[0];
    float* ga = ai->grad.data();
    for (int64_t i = 0; i < n; ++i) ga[i] += g;
  });
  return out;
}

Tensor Mean(const Tensor& a) {
  const int64_t n = a.numel();
  RPT_CHECK_GT(n, 0);
  return Scale(Sum(a), 1.0f / static_cast<float>(n));
}

Tensor CrossEntropyLoss(const Tensor& logits,
                        const std::vector<int32_t>& targets,
                        int32_t ignore_index, float label_smoothing) {
  RPT_CHECK_EQ(logits.ndim(), 2);
  const int64_t n = logits.dim(0);
  const int64_t v = logits.dim(1);
  RPT_CHECK_EQ(static_cast<int64_t>(targets.size()), n);
  RPT_CHECK_GE(label_smoothing, 0.0f);
  RPT_CHECK_LT(label_smoothing, 1.0f);
  auto li = logits.impl();
  Tensor out = MakeOpResult({1}, {li});
  auto oi = out.impl();

  // Log-softmax probabilities, cached for backward.
  auto logp = std::make_shared<std::vector<float>>(li->size);
  int64_t active = 0;
  double loss = 0.0;
  const float off_weight =
      v > 1 ? label_smoothing / static_cast<float>(v - 1) : 0.0f;
  const float on_weight = 1.0f - label_smoothing;
  for (int64_t r = 0; r < n; ++r) {
    const float* x = li->data + r * v;
    float* lp = logp->data() + r * v;
    float mx = x[0];
    for (int64_t c = 1; c < v; ++c) mx = std::max(mx, x[c]);
    float sum = 0.0f;
    for (int64_t c = 0; c < v; ++c) sum += std::exp(x[c] - mx);
    const float lse = mx + std::log(sum);
    for (int64_t c = 0; c < v; ++c) lp[c] = x[c] - lse;
    const int32_t t = targets[static_cast<size_t>(r)];
    if (t == ignore_index) continue;
    RPT_CHECK(t >= 0 && t < v) << "target " << t << " out of range";
    ++active;
    if (label_smoothing == 0.0f) {
      loss -= lp[t];
    } else {
      double row = 0.0;
      for (int64_t c = 0; c < v; ++c) {
        const float w = (c == t) ? on_weight : off_weight;
        row -= w * lp[c];
      }
      loss += row;
    }
  }
  RPT_CHECK_GT(active, 0) << "CrossEntropyLoss with no active targets";
  oi->data[0] = static_cast<float>(loss / active);

  auto targets_copy = std::make_shared<std::vector<int32_t>>(targets);
  AttachBackward(out, [oi, li, logp, targets_copy, n, v, active,
                       ignore_index, on_weight, off_weight,
                       label_smoothing]() {
    if (!li->requires_grad) return;
    li->EnsureGrad();
    const float gout = oi->grad[0] / static_cast<float>(active);
    for (int64_t r = 0; r < n; ++r) {
      const int32_t t = (*targets_copy)[static_cast<size_t>(r)];
      if (t == ignore_index) continue;
      const float* lp = logp->data() + r * v;
      float* g = li->grad.data() + r * v;
      for (int64_t c = 0; c < v; ++c) {
        const float p = std::exp(lp[c]);
        const float y =
            label_smoothing == 0.0f
                ? (c == t ? 1.0f : 0.0f)
                : (c == t ? on_weight : off_weight);
        g[c] += gout * (p - y);
      }
    }
  });
  return out;
}

Tensor Dropout(const Tensor& a, float p, bool training, Rng* rng) {
  if (!training || p <= 0.0f) return a;
  RPT_CHECK_LT(p, 1.0f);
  RPT_CHECK(rng != nullptr);
  auto ai = a.impl();
  Tensor out = MakeOpResult(a.shape(), {ai});
  auto oi = out.impl();
  const int64_t n = a.numel();
  const float scale = 1.0f / (1.0f - p);
  auto mask = std::make_shared<std::vector<float>>(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float m = rng->Bernoulli(p) ? 0.0f : scale;
    (*mask)[static_cast<size_t>(i)] = m;
    oi->data[static_cast<size_t>(i)] =
        ai->data[static_cast<size_t>(i)] * m;
  }
  AttachBackward(out, [oi, ai, mask, n]() {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    const float* g = oi->grad.data();
    float* ga = ai->grad.data();
    for (int64_t i = 0; i < n; ++i) {
      ga[i] += g[i] * (*mask)[static_cast<size_t>(i)];
    }
  });
  return out;
}

std::vector<int32_t> ArgmaxLastDim(const Tensor& a) {
  const int64_t cols = a.dim(-1);
  const int64_t rows = a.numel() / cols;
  std::vector<int32_t> out(static_cast<size_t>(rows));
  const float* d = a.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = d + r * cols;
    int64_t best = 0;
    for (int64_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[static_cast<size_t>(r)] = static_cast<int32_t>(best);
  }
  return out;
}

double GradCheck(const std::function<Tensor(const Tensor&)>& fn, Tensor x,
                 int probe_count, Rng* rng, float epsilon) {
  x.set_requires_grad(true);
  Tensor loss = fn(x);
  RPT_CHECK_EQ(loss.numel(), 1);
  loss.Backward();
  std::vector<float> analytic(x.impl()->grad);

  double max_rel_err = 0.0;
  const int64_t n = x.numel();
  for (int i = 0; i < probe_count; ++i) {
    const int64_t idx =
        static_cast<int64_t>(rng->UniformInt(static_cast<uint64_t>(n)));
    const float orig = x.data()[idx];
    x.data()[idx] = orig + epsilon;
    NoGradGuard guard;
    const float up = fn(x).item();
    x.data()[idx] = orig - epsilon;
    const float down = fn(x).item();
    x.data()[idx] = orig;
    const double numeric =
        (static_cast<double>(up) - down) / (2.0 * epsilon);
    const double a = analytic[static_cast<size_t>(idx)];
    const double denom = std::max(1.0, std::max(std::fabs(numeric),
                                                std::fabs(a)));
    max_rel_err = std::max(max_rel_err, std::fabs(numeric - a) / denom);
  }
  return max_rel_err;
}

}  // namespace rpt
