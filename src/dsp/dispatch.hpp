#pragma once

#include <string>

namespace beesim::dsp {

/// Instruction-set tiers of the runtime-dispatched SIMD kernels
/// (docs/ARCHITECTURE.md "Runtime CPU dispatch"). Every tier of every
/// kernel is bit-identical on the same inputs — vector lanes carry
/// independent elements through the same operations in the same order,
/// and the AVX2 and AVX-512 translation units are compiled with
/// -ffp-contract=off so no mul/add pair fuses into an FMA the scalar tier
/// does not perform. Dispatch is therefore a pure throughput knob: the
/// committed anchors reproduce under any tier (enforced by
/// scripts/check.sh).
enum class IsaTier {
  kScalar = 0,  ///< portable C++ (also the non-x86 fallback)
  kSse2 = 1,    ///< x86-64 baseline vectors (compiler-autovectorized)
  kAvx2 = 2,    ///< AVX2 intrinsics (+FMA only where scalar uses std::fma)
  kAvx512 = 3,  ///< AVX-512F batch kernels; GEMM and Welford stay AVX2
};

/// Dispatch request: a concrete tier, or probe the CPU once at startup.
enum class IsaRequest {
  kAuto = -1,
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// The best tier this CPU supports (cpuid probe, cached after the first
/// call). kAvx2 requires both AVX2 and FMA, kAvx512 AVX-512F on top of
/// them; anything x86-64 reports at least kSse2; other architectures
/// report kScalar.
IsaTier detected_isa() noexcept;

/// The tier the kernel tables currently dispatch to. Resolves kAuto via
/// detected_isa() on first use and publishes the selection to the
/// `dsp.dispatch.isa` gauge when the obs layer is enabled.
IsaTier active_isa() noexcept;

/// Selects the dispatch tier (clamped to detected_isa() — requesting
/// AVX-512 or AVX2 on a CPU without it falls back to the best supported
/// tier).
/// Process-global and atomic; every tier is bit-identical, so a switch
/// while kernels run moves only their speed.
void set_active_isa(IsaRequest request) noexcept;

/// Parses the `dispatch=` bench argument: "auto", "scalar", "sse2",
/// "avx2" or "avx512"; throws std::invalid_argument on anything else.
IsaRequest isa_from_name(const std::string& name);

/// Lower-case tier name ("scalar" / "sse2" / "avx2" / "avx512").
const char* isa_name(IsaTier tier) noexcept;

}  // namespace beesim::dsp
