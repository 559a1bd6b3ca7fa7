// Module: base class for neural-network components.
//
// Concrete modules register their parameters and sub-modules in their
// constructor; the base class then provides recursive parameter collection
// (for optimizers and checkpointing), train/eval mode switching, and
// gradient zeroing.

#ifndef RPT_NN_MODULE_H_
#define RPT_NN_MODULE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "util/serialize.h"
#include "util/status.h"

namespace rpt {

class WeightStore;

class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters, depth-first.
  std::vector<Tensor> Parameters() const;

  /// (dotted-path name, parameter) pairs, depth-first; names are stable and
  /// used as checkpoint keys.
  std::vector<std::pair<std::string, Tensor>> NamedParameters() const;

  /// Total number of scalar parameters.
  int64_t ParameterCount() const;

  /// Zeroes allocated gradients on every parameter.
  void ZeroGrad();

  /// Switches train/eval mode recursively (affects dropout).
  void SetTraining(bool training);
  bool training() const { return training_; }

  /// Serializes all parameters (names + payloads) into `writer`.
  void SaveState(BinaryWriter* writer) const;

  /// Restores parameters from `reader`; fails if any name or shape differs.
  /// Refuses (kFailedPrecondition) when any parameter is a WeightStore view
  /// — shared blobs are immutable; load into an unbound module and re-freeze.
  Status LoadState(BinaryReader* reader);

  /// Rebinds every parameter (recursively) as a view into `store`'s shared
  /// blob; the previously owned buffers are freed, so N bound replicas hold
  /// one copy of the weights. Every parameter must exist in the store with
  /// a matching shape (kInvalidArgument otherwise; parameters bound before
  /// the failure stay bound). Binding puts the module in eval mode: bound
  /// parameters cannot require grad.
  Status BindWeights(const std::shared_ptr<const WeightStore>& store);

 protected:
  Module() = default;

  /// Registers a trainable parameter; marks it requires_grad.
  Tensor RegisterParameter(const std::string& name, Tensor tensor);

  /// Registers a child module (non-owning; the child must outlive `this`,
  /// which holds in practice because children are data members).
  void RegisterModule(const std::string& name, Module* child);

 private:
  Status BindWeightsImpl(const std::string& prefix,
                         const std::shared_ptr<const WeightStore>& store);
  void CollectNamed(const std::string& prefix,
                    std::vector<std::pair<std::string, Tensor>>* out) const;

  std::vector<std::pair<std::string, Tensor>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

}  // namespace rpt

#endif  // RPT_NN_MODULE_H_
