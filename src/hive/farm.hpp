#pragma once

#include <cstdint>
#include <vector>

#include "hive/beehive.hpp"
#include "sim/trace.hpp"

namespace beesim::hive {

/// Result of simulating one hive to the horizon on its own engine.
struct HiveRun {
  SmartBeehive::Stats stats;
  /// DES events the hive's private engine executed.
  std::uint64_t events_executed = 0;
};

/// Aggregate over per-hive runs; field-for-field the same sums as
/// Apiary::SiteStats so site- and farm-level reports line up.
struct FarmStats {
  std::uint64_t wakeups_attempted = 0;
  std::uint64_t wakeups_completed = 0;
  std::uint64_t wakeups_skipped = 0;
  util::Joules consumed = 0.0;
  util::Joules harvested = 0.0;
  util::Seconds total_outage = 0.0;
  int hives_with_outage = 0;
  std::uint64_t events_executed = 0;
};

/// Runs N fully independent hives in parallel — one private sim::Engine
/// per hive, fanned out over util::parallel_for. Results are bit-identical
/// for any thread count (and to a serial loop over the same configs)
/// because nothing is shared between hives: each config carries every seed
/// its weather, sensors, devices and fault draws consume, the same
/// discipline as the PR 2 sweep. `trace0` (optional) records hive 0's
/// series exactly as a serial single-hive run with a recorder would.
///
/// This is the trace-level counterpart of core::LargeScaleSimulator: the
/// analytic fleet scales to millions of hives per cycle, this harness
/// scales full DES wake-up traces across cores.
std::vector<HiveRun> run_hives_parallel(
    const std::vector<SmartBeehive::Config>& configs, sim::SimTime horizon,
    unsigned threads = 0, sim::TraceRecorder* trace0 = nullptr);

/// Builds a farm of per-hive configs from a template: hive 0 is the
/// template verbatim (so its trace matches the single-hive run
/// byte-for-byte); hives i > 0 reseed their per-hive randomness through
/// Rng::for_stream(template.seed, i) but keep the template's sky
/// (irradiance and weather seeds), like co-located apiary hives.
std::vector<SmartBeehive::Config> farm_configs(
    const SmartBeehive::Config& hive_template, int hive_count);

/// Sums per-hive runs into farm totals.
FarmStats aggregate_farm(const std::vector<HiveRun>& runs);

}  // namespace beesim::hive
