#pragma once

#include "device/task.hpp"
#include "net/link.hpp"
#include "util/stats.hpp"

namespace beesim::device {

/// Which intelligent service runs on the collected audio.
enum class ServiceModel { kNone, kSvm, kCnn };

/// Where the service executes.
enum class Placement { kEdgeOnly, kEdgeCloud };

const char* to_string(ServiceModel model) noexcept;
const char* to_string(Placement placement) noexcept;

/// Builds the Raspberry Pi 3B+'s active task list for one wake-up cycle:
///  - EdgeOnly:  wake_collect [-> inference] -> send_results -> shutdown
///  - EdgeCloud: wake_collect -> send_audio -> shutdown
/// (Table I / Table II edge columns.)
TaskSequence edge_routine(Placement placement, ServiceModel model);

/// The Section IV calibration routine: wake_collect -> transfer everything
/// -> shutdown, with the transfer duration sampled from a Link each time.
/// Reproduces the 89 s / 2.14 W / 190.1 J averages and the 3.5 s length
/// sigma over `count` routines.
struct RoutineCalibration {
  util::RunningStats duration;    // seconds per routine
  util::RunningStats mean_power;  // watts per routine
  util::RunningStats energy;      // joules per routine
};

RoutineCalibration calibrate_routines(const net::Link& link, int count,
                                      std::uint64_t seed);

/// Wi-Fi preset calibrated so the full routine upload (3 audio samples,
/// 5 images, sensor record ~1.6 MB) takes ~15 s with sigma ~3.5 s, matching
/// the deployed rooftop link's effective uplink.
net::Link beehive_uplink();

/// Average consumed power of the Raspberry Pi 3B+ when woken every
/// `period` seconds (Fig 3): one routine of energy plus the fixed cycle
/// overhead, then sleep for the remainder.
util::Watts average_power_at_period(util::Seconds period);

/// Same, but excluding the per-cycle overhead (the naive prediction from
/// Section IV numbers alone; the Fig 3 bench prints both).
util::Watts average_power_at_period_raw(util::Seconds period);

}  // namespace beesim::device
