#include "dsp/dispatch.hpp"

#include <atomic>
#include <stdexcept>

#include "obs/catalog.hpp"

namespace beesim::dsp {
namespace {

IsaTier probe() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports reads cpuid once and caches; FMA is required
  // alongside AVX2 because the int8 dequantization step fuses exactly
  // where the scalar tier calls std::fma. The AVX-512 tier reuses the
  // AVX2 GEMM and Welford kernels, so it needs both as well.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    if (__builtin_cpu_supports("avx512f")) return IsaTier::kAvx512;
    return IsaTier::kAvx2;
  }
  if (__builtin_cpu_supports("sse2")) return IsaTier::kSse2;
  return IsaTier::kScalar;
#else
  return IsaTier::kScalar;
#endif
}

/// -1 = unresolved (auto); otherwise the IsaTier value.
std::atomic<int> g_active{-1};

void publish(IsaTier tier) noexcept {
  if (obs::enabled()) {
    static auto& gauge =
        obs::registry().gauge(obs::metric::kDspDispatchIsa);
    gauge.set(static_cast<double>(static_cast<int>(tier)));
  }
}

}  // namespace

IsaTier detected_isa() noexcept {
  static const IsaTier tier = probe();
  return tier;
}

IsaTier active_isa() noexcept {
  int v = g_active.load(std::memory_order_relaxed);
  if (v < 0) {
    const IsaTier tier = detected_isa();
    g_active.store(static_cast<int>(tier), std::memory_order_relaxed);
    publish(tier);
    return tier;
  }
  return static_cast<IsaTier>(v);
}

void set_active_isa(IsaRequest request) noexcept {
  IsaTier tier = detected_isa();
  if (request != IsaRequest::kAuto) {
    const auto wanted = static_cast<IsaTier>(request);
    if (static_cast<int>(wanted) < static_cast<int>(tier)) tier = wanted;
  }
  g_active.store(static_cast<int>(tier), std::memory_order_relaxed);
  publish(tier);
}

IsaRequest isa_from_name(const std::string& name) {
  if (name == "auto") return IsaRequest::kAuto;
  if (name == "scalar") return IsaRequest::kScalar;
  if (name == "sse2") return IsaRequest::kSse2;
  if (name == "avx2") return IsaRequest::kAvx2;
  if (name == "avx512") return IsaRequest::kAvx512;
  throw std::invalid_argument(
      "isa_from_name: expected 'auto', 'scalar', 'sse2', 'avx2' or "
      "'avx512', got '" + name + "'");
}

const char* isa_name(IsaTier tier) noexcept {
  switch (tier) {
    case IsaTier::kSse2: return "sse2";
    case IsaTier::kAvx2: return "avx2";
    case IsaTier::kAvx512: return "avx512";
    case IsaTier::kScalar: break;
  }
  return "scalar";
}

}  // namespace beesim::dsp
