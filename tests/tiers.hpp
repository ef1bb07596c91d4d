#pragma once

// The dispatch values every tier loop of the tests walks, listed once:
// each tier by name, then auto. A named tier the CPU lacks clamps down to
// the best one it has, as dsp::set_active_isa does, so on any host the
// loops reach every tier the CPU can run, and auto reaches the tier a
// default process runs.

#include <algorithm>

#include "dsp/dispatch.hpp"

namespace beesim::tiers {

inline constexpr dsp::IsaRequest kDispatch[] = {
    dsp::IsaRequest::kScalar, dsp::IsaRequest::kSse2, dsp::IsaRequest::kAvx2,
    dsp::IsaRequest::kAvx512, dsp::IsaRequest::kAuto};

/// The tier `request` selects on this CPU, without switching the active
/// one: auto is the detected tier, and a named tier is clamped to it.
inline dsp::IsaTier tier_of(dsp::IsaRequest request) {
  const dsp::IsaTier detected = dsp::detected_isa();
  if (request == dsp::IsaRequest::kAuto) return detected;
  return std::min(static_cast<dsp::IsaTier>(request), detected);
}

/// Restores the active dispatch tier on scope exit so a forced tier never
/// leaks into other suites.
class IsaGuard {
 public:
  IsaGuard() : saved_(dsp::active_isa()) {}
  ~IsaGuard() { dsp::set_active_isa(static_cast<dsp::IsaRequest>(saved_)); }

 private:
  dsp::IsaTier saved_;
};

}  // namespace beesim::tiers
