#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace beesim::fault {

/// The fault taxonomy of the resilience layer (docs/RESILIENCE.md).
/// Every kind maps to a concrete misbehaviour of the deployed system the
/// paper's Section VI placement argument has to survive: the rooftop
/// uplink drops, the shared server browns out, the solar/battery chain
/// derates after a string of overcast days, or a sensor goes mute.
enum class FaultKind {
  /// Uplink fully down: no payload leaves the hive during the window.
  kLinkOutage,
  /// Uplink degraded: throughput scaled by `severity` (remaining
  /// bandwidth fraction in (0, 1)).
  kLinkDegraded,
  /// Cloud servers unreachable/offline: no slot can be served.
  kCloudOutage,
  /// Cloud brownout: per-server slot capacity scaled by `severity`
  /// (remaining capacity fraction in (0, 1)).
  kCloudBrownout,
  /// Battery/solar derating: only `severity` of the usable energy budget
  /// remains (fraction in (0, 1)).
  kBatteryDerate,
  /// Sensor dropout: `severity` is the fraction of the fleet whose
  /// sensors produce no data during the window ([0, 1]).
  kSensorDropout,
};

/// Number of FaultKind enumerators (for per-kind tables and RNG streams).
inline constexpr int kFaultKindCount = 6;

/// Human-readable kind name ("link_outage", ...).
const char* to_string(FaultKind kind) noexcept;

/// One scheduled fault: a half-open set of *cycle indices* on the fleet's
/// slot clock — [first_cycle, last_cycle], both inclusive — plus a
/// kind-specific severity (see FaultKind). Windows are deterministic data:
/// no clock, no randomness; a plan replayed from the same windows always
/// injects the same faults.
struct FaultWindow {
  FaultKind kind = FaultKind::kLinkOutage;
  int first_cycle = 0;  ///< First affected wake-up cycle (inclusive).
  int last_cycle = 0;   ///< Last affected wake-up cycle (inclusive).
  /// Kind-specific magnitude; ignored for the two full-outage kinds.
  double severity = 1.0;

  /// Window length in cycles (>= 1 for a valid window).
  int duration() const noexcept { return last_cycle - first_cycle + 1; }
};

/// A deterministic, seeded schedule of fault windows — the single source
/// of truth the injector compiles and every layer reacts to. An empty
/// plan is the contract for "bit-identical to the fault-free benches"
/// (enforced by scripts/check.sh against the committed fig anchors).
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Appends a window after validating it (throws std::invalid_argument
  /// on negative cycles, inverted ranges, a last cycle of INT_MAX, or
  /// out-of-range severities).
  FaultPlan& add(const FaultWindow& window);

  /// All scheduled windows, in insertion order.
  const std::vector<FaultWindow>& windows() const noexcept {
    return windows_;
  }

  /// True when no window is scheduled (the fault-free contract).
  bool empty() const noexcept { return windows_.empty(); }

  /// One past the last scheduled cycle (0 for an empty plan).
  int horizon_cycles() const noexcept;

  /// The empty plan, spelled out.
  static FaultPlan none() { return {}; }

  /// Seeded random outage schedule over [0, cycles): windows of `kind`
  /// with geometric durations (mean `mean_duration_cycles`) covering an
  /// expected `outage_rate` fraction of all cycles. Identical
  /// (seed, cycles, rate, duration, kind, severity) inputs produce the
  /// identical plan — the generator draws from its own Rng stream keyed
  /// by seed and kind, so plans for different kinds never interact.
  static FaultPlan random_outages(std::uint64_t seed, int cycles,
                                  double outage_rate,
                                  int mean_duration_cycles,
                                  FaultKind kind = FaultKind::kCloudOutage,
                                  double severity = 1.0);

 private:
  std::vector<FaultWindow> windows_;
};

}  // namespace beesim::fault
