#include "fault/fault.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace beesim::fault {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kLinkOutage: return "link_outage";
    case FaultKind::kLinkDegraded: return "link_degraded";
    case FaultKind::kCloudOutage: return "cloud_outage";
    case FaultKind::kCloudBrownout: return "cloud_brownout";
    case FaultKind::kBatteryDerate: return "battery_derate";
    case FaultKind::kSensorDropout: return "sensor_dropout";
  }
  return "unknown";
}

namespace {

bool severity_valid(const FaultWindow& w) {
  switch (w.kind) {
    case FaultKind::kLinkOutage:
    case FaultKind::kCloudOutage:
      return true;  // severity ignored
    case FaultKind::kLinkDegraded:
    case FaultKind::kCloudBrownout:
    case FaultKind::kBatteryDerate:
      return w.severity > 0.0 && w.severity < 1.0;
    case FaultKind::kSensorDropout:
      return w.severity >= 0.0 && w.severity <= 1.0;
  }
  return false;
}

}  // namespace

FaultPlan& FaultPlan::add(const FaultWindow& window) {
  // horizon_cycles() is last_cycle + 1, so INT_MAX has no horizon.
  if (window.first_cycle < 0 || window.last_cycle < window.first_cycle ||
      window.last_cycle == std::numeric_limits<int>::max())
    throw std::invalid_argument("FaultPlan: bad window cycle range");
  if (!severity_valid(window))
    throw std::invalid_argument("FaultPlan: severity out of range for kind");
  windows_.push_back(window);
  return *this;
}

int FaultPlan::horizon_cycles() const noexcept {
  int horizon = 0;
  for (const auto& w : windows_)
    if (w.last_cycle + 1 > horizon) horizon = w.last_cycle + 1;
  return horizon;
}

FaultPlan FaultPlan::random_outages(std::uint64_t seed, int cycles,
                                    double outage_rate,
                                    int mean_duration_cycles, FaultKind kind,
                                    double severity) {
  if (cycles < 0 || outage_rate < 0.0 || outage_rate > 1.0 ||
      mean_duration_cycles < 1)
    throw std::invalid_argument("FaultPlan::random_outages: bad arguments");
  FaultPlan plan;
  if (cycles == 0 || outage_rate == 0.0) return plan;
  // A window starting every ~mean_duration/outage_rate cycles with a
  // geometric duration of mean mean_duration covers an expected
  // outage_rate fraction of cycles. The stream is keyed by kind so plans
  // for different kinds built from one seed stay independent.
  util::Rng rng = util::Rng::for_stream(
      seed, 0xfa017ULL * 0x100 + static_cast<std::uint64_t>(kind));
  const double start_p =
      outage_rate / static_cast<double>(mean_duration_cycles);
  const double continue_p =
      1.0 - 1.0 / static_cast<double>(mean_duration_cycles);
  for (int c = 0; c < cycles; ++c) {
    if (!rng.chance(start_p)) continue;
    int last = c;
    while (last + 1 < cycles && rng.chance(continue_p)) ++last;
    plan.add({kind, c, last, severity});
    c = last;  // windows never overlap themselves
  }
  return plan;
}

}  // namespace beesim::fault
