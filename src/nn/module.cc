#include "nn/module.h"

#include "nn/weight_store.h"
#include "util/logging.h"

namespace rpt {

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> out;
  for (const auto& [name, tensor] : NamedParameters()) {
    out.push_back(tensor);
  }
  return out;
}

std::vector<std::pair<std::string, Tensor>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, Tensor>> out;
  CollectNamed("", &out);
  return out;
}

void Module::CollectNamed(
    const std::string& prefix,
    std::vector<std::pair<std::string, Tensor>>* out) const {
  for (const auto& [name, tensor] : params_) {
    out->emplace_back(prefix + name, tensor);
  }
  for (const auto& [name, child] : children_) {
    child->CollectNamed(prefix + name + ".", out);
  }
}

int64_t Module::ParameterCount() const {
  int64_t total = 0;
  for (const auto& [name, tensor] : NamedParameters()) {
    total += tensor.numel();
  }
  return total;
}

void Module::ZeroGrad() {
  for (auto& t : Parameters()) t.ZeroGrad();
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->SetTraining(training);
}

void Module::SaveState(BinaryWriter* writer) const {
  auto named = NamedParameters();
  writer->WriteU64(named.size());
  for (const auto& [name, tensor] : named) {
    writer->WriteString(name);
    writer->WriteI64Vector(tensor.shape());
    writer->WriteFloatVector(tensor.ToVector());
  }
}

Status Module::LoadState(BinaryReader* reader) {
  auto named = NamedParameters();
  for (const auto& [name, tensor] : named) {
    if (tensor.is_view()) {
      return Status::FailedPrecondition(
          "cannot LoadState into a module bound to a shared WeightStore "
          "(parameter " +
          name + " is a view); load into an unbound module and re-freeze");
    }
  }
  auto count = reader->ReadU64();
  if (!count.ok()) return count.status();
  if (*count != named.size()) {
    return Status::InvalidArgument(
        "checkpoint parameter count mismatch: expected " +
        std::to_string(named.size()) + ", got " + std::to_string(*count));
  }
  for (auto& [name, tensor] : named) {
    auto saved_name = reader->ReadString();
    if (!saved_name.ok()) return saved_name.status();
    if (*saved_name != name) {
      return Status::InvalidArgument("checkpoint name mismatch: expected " +
                                     name + ", got " + *saved_name);
    }
    auto shape = reader->ReadI64Vector();
    if (!shape.ok()) return shape.status();
    if (*shape != tensor.shape()) {
      return Status::InvalidArgument("checkpoint shape mismatch for " + name);
    }
    auto values = reader->ReadFloatVector();
    if (!values.ok()) return values.status();
    if (static_cast<int64_t>(values->size()) != tensor.numel()) {
      return Status::InvalidArgument("checkpoint size mismatch for " + name);
    }
    std::copy(values->begin(), values->end(), tensor.data());
  }
  return Status::Ok();
}

Status Module::BindWeights(const std::shared_ptr<const WeightStore>& store) {
  RPT_CHECK(store != nullptr);
  RPT_RETURN_IF_ERROR(BindWeightsImpl("", store));
  SetTraining(false);
  return Status::Ok();
}

Status Module::BindWeightsImpl(const std::string& prefix,
                               const std::shared_ptr<const WeightStore>& store) {
  for (auto& [name, tensor] : params_) {
    const std::string full_name = prefix + name;
    const WeightEntry* entry = store->Find(full_name);
    if (entry == nullptr) {
      return Status::InvalidArgument("weight store has no entry for " +
                                     full_name);
    }
    if (entry->shape != tensor.shape()) {
      return Status::InvalidArgument("weight store shape mismatch for " +
                                     full_name);
    }
    tensor.BindTo(store->KeepaliveFor(store), store->DataFor(*entry));
  }
  for (auto& [name, child] : children_) {
    RPT_RETURN_IF_ERROR(child->BindWeightsImpl(prefix + name + ".", store));
  }
  return Status::Ok();
}

Tensor Module::RegisterParameter(const std::string& name, Tensor tensor) {
  tensor.set_requires_grad(true);
  params_.emplace_back(name, tensor);
  return tensor;
}

void Module::RegisterModule(const std::string& name, Module* child) {
  RPT_CHECK(child != nullptr);
  children_.emplace_back(name, child);
}

}  // namespace rpt
