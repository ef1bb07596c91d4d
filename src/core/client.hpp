#pragma once

#include "core/scenario.hpp"
#include "device/task.hpp"
#include "util/units.hpp"

namespace beesim::core {

/// The "client" of the paper's simulation model (Section VI.A): one smart
/// beehive, described by its sleep power, an ordered series of active
/// actions with time/power, and the interval between wake-ups. Any IoT
/// device linked to a server fits this shape.
struct ClientSpec {
  util::Watts sleep_power = 0.0;
  device::TaskSequence actions;
  util::Seconds period = 300.0;

  util::Seconds active_time() const noexcept;
  util::Joules active_energy() const noexcept;
  /// Energy of one full cycle: active actions + sleep for the remainder.
  util::Joules cycle_energy() const;
  /// Energy of a cycle in which the client never woke (loss model C).
  util::Joules sleep_cycle_energy() const noexcept {
    return sleep_power * period;
  }

  /// The smart-beehive client for a given placement/service, built from
  /// the calibrated scenario tables. For kEdgeCloud this is the 322 J /
  /// cycle client of Table II.
  static ClientSpec smart_beehive(Placement placement, ServiceModel service,
                                  util::Seconds period = 300.0);
};

/// Throws std::invalid_argument when the edge-only smart beehive of
/// `service` cannot run a `period`-second cycle: its routine is longer
/// than the period, so its cycle_energy() would throw. What-if admission
/// (whose verdict prices this client) and ResilientFleet::validate (whose
/// edge fallback does) both call it.
void validate_edge_only(ServiceModel service, util::Seconds period);

}  // namespace beesim::core
