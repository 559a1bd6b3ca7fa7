#include "tensor/cpu_features.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

namespace rpt {

namespace {

// -1 = no override; otherwise a TensorBackend value.
std::atomic<int> g_backend_override{-1};

// Resolves the environment request once; `auto` when unset/unrecognized.
// Returns -1 for auto, otherwise a TensorBackend value.
int EnvBackendRequest() {
  static const int request = [] {
    const char* env = std::getenv("RPT_TENSOR_BACKEND");
    if (env == nullptr || std::strcmp(env, "auto") == 0) return -1;
    if (std::strcmp(env, "scalar") == 0) {
      return static_cast<int>(TensorBackend::kScalar);
    }
    if (std::strcmp(env, "avx2") == 0) {
      return static_cast<int>(TensorBackend::kAvx2);
    }
    RPT_LOG(Warning) << "unrecognized RPT_TENSOR_BACKEND=\"" << env
                     << "\" (expected scalar|avx2|auto); using auto";
    return -1;
  }();
  return request;
}

// Degrades an avx2 request to scalar when the build or host cannot run it.
TensorBackend Sanitize(TensorBackend requested) {
  if (requested == TensorBackend::kAvx2 &&
      (!BuiltWithAvx2() || !CpuSupportsAvx2Fma())) {
    static const bool warned = [] {
      RPT_LOG(Warning)
          << "avx2 tensor backend requested but unavailable "
          << "(built_with_avx2=" << BuiltWithAvx2()
          << ", cpu_avx2_fma=" << CpuSupportsAvx2Fma()
          << "); falling back to scalar";
      return true;
    }();
    (void)warned;
    return TensorBackend::kScalar;
  }
  return requested;
}

}  // namespace

bool CpuSupportsAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return supported;
#else
  return false;
#endif
}

bool BuiltWithAvx2() {
#ifdef RPT_HAVE_AVX2
  return true;
#else
  return false;
#endif
}

TensorBackend ActiveTensorBackend() {
  const int override_value = g_backend_override.load(std::memory_order_acquire);
  if (override_value >= 0) {
    return Sanitize(static_cast<TensorBackend>(override_value));
  }
  const int env = EnvBackendRequest();
  if (env >= 0) return Sanitize(static_cast<TensorBackend>(env));
  return Sanitize(TensorBackend::kAvx2);  // auto: fastest available
}

const char* TensorBackendName(TensorBackend backend) {
  switch (backend) {
    case TensorBackend::kScalar:
      return "scalar";
    case TensorBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

ScopedTensorBackendOverride::ScopedTensorBackendOverride(TensorBackend backend)
    : prev_(g_backend_override.exchange(static_cast<int>(backend),
                                        std::memory_order_acq_rel)) {}

ScopedTensorBackendOverride::~ScopedTensorBackendOverride() {
  g_backend_override.store(prev_, std::memory_order_release);
}

}  // namespace rpt
