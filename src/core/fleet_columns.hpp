#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "dsp/simd_kernels.hpp"
#include "hive/farm.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace beesim::core {

/// One util::RunningStats accumulator per sweep point, stored as six
/// per-field contiguous columns instead of an array of accumulator
/// structs. The sweeps advance a point in a dsp::Welford5 (see
/// accumulate_cycles) and transfer it here through set(); stats() hands
/// it back. Both transfers are exact (roundtrip-tested). The columns are
/// the unit the checkpoint layer persists: restore is a bulk copy, no
/// per-point reconstruction.
struct StatColumns {
  std::vector<std::uint64_t> n;
  std::vector<double> mean;
  std::vector<double> m2;
  std::vector<double> sum;
  std::vector<double> min;
  std::vector<double> max;

  /// Sizes every column to `count` empty accumulators (min/max at their
  /// +/-infinity sentinels, everything else zero).
  void reset(std::size_t count);
  /// Accumulator `i` as a RunningStats (exact representation transfer).
  util::RunningStats stats(std::size_t i) const;
  /// Overwrites accumulator `i` with the exact representation of `s`.
  void set(std::size_t i, const util::RunningStats& s);

  std::size_t size() const noexcept { return n.size(); }
};

/// The cycle loop both sweeps share (LargeScaleSimulator::advance and
/// ResilientFleet::run_point): `cycle(c, row)` runs cycle c of `cycles`
/// and writes its statistics into a five-lane row, and the rows fold
/// into `st` through dsp::kernel_table().welford5_add in 128-row chunks.
/// The statistics draw no RNG, so deferring them past the cycle is pure
/// reordering, and the kernel applies the exact RunningStats::add
/// recurrence per sample per lane under every tier: bit-identical to one
/// add per statistic per cycle (tests/test_simd.cpp, and the scalar
/// oracles in tests/fleet_oracle.hpp).
template <typename Cycle>
void accumulate_cycles(dsp::Welford5& st, int cycles, Cycle&& cycle) {
  const dsp::KernelTable& kernels = dsp::kernel_table();
  constexpr int kChunk = 128;
  double buf[kChunk * 5];
  int filled = 0;
  for (int c = 0; c < cycles; ++c) {
    cycle(c, buf + filled * 5);
    if (++filled == kChunk) {
      kernels.welford5_add(&st, buf, kChunk);
      filled = 0;
    }
  }
  if (filled > 0)
    kernels.welford5_add(&st, buf, static_cast<std::size_t>(filled));
}

/// Lane `lane` of `st` as a RunningStats, and the reverse (exact
/// representation transfers; every lane shares `st.n`).
util::RunningStats welford_lane(const dsp::Welford5& st, int lane);
void set_welford_lane(dsp::Welford5& st, int lane,
                      const util::RunningStats& stats);

/// Columnar campaign state of one LargeScaleSimulator sweep — the SoA
/// ("structure of arrays") counterpart of std::vector<SweepPoint>. Every
/// per-point field lives in its own contiguous array: fleet sizes,
/// progress counters, running-max server counts, the five statistic
/// accumulators (as StatColumns), and the full RNG cursor (xoshiro lanes
/// and the Box-Muller cache as per-word columns). Hot loops touch only
/// the columns they need; the checkpoint layer (core::Checkpoint,
/// docs/CHECKPOINT.md) persists the arrays verbatim, which is what makes
/// stop/resume/shard/merge land bit-identically on an uninterrupted
/// sweep's results.
struct FleetColumns {
  /// Campaign identity: the sweep seed and per-point cycle target. The
  /// seed only names the campaign (streams derive from (seed, clients));
  /// both are persisted and checked on restore.
  std::uint64_t seed = 0;
  std::int32_t cycles_target = 0;

  /// Static per-point input: the deployed fleet size.
  std::vector<std::int32_t> clients;
  /// Cycles simulated so far (== cycles_target when the point is done).
  std::vector<std::int32_t> cycles_done;
  /// Running max of servers used across the point's cycles.
  std::vector<std::int32_t> servers_used;

  /// RNG cursor: xoshiro256** lanes and the Box-Muller cache of each
  /// point's stream, so a point can stop and resume mid-sequence.
  std::vector<std::uint64_t> rng_s0;
  std::vector<std::uint64_t> rng_s1;
  std::vector<std::uint64_t> rng_s2;
  std::vector<std::uint64_t> rng_s3;
  std::vector<double> rng_cached_normal;
  std::vector<std::uint8_t> rng_has_cached;

  /// The five SweepPoint statistics, one accumulator column set each.
  StatColumns lost_clients;
  StatColumns active_slots;
  StatColumns edge_energy;
  StatColumns cloud_energy;
  StatColumns total_energy;

  /// A fresh campaign: every point at zero cycles, every RNG cursor at
  /// the head of its Rng::for_stream(seed, clients) stream — exactly
  /// where sweep() would start it.
  static FleetColumns start(const std::vector<int>& client_counts,
                            std::uint64_t seed, int cycles_per_point);

  std::size_t size() const noexcept { return clients.size(); }
  bool complete() const noexcept;
  /// Points already at their cycle target.
  std::size_t points_done() const noexcept;
  /// Total cycles simulated so far across all points.
  std::int64_t cycles_total() const noexcept;

  util::Rng::State rng_state(std::size_t i) const noexcept;
  void set_rng_state(std::size_t i, const util::Rng::State& s) noexcept;

  /// Point `i` re-materialized as the SweepPoint sweep() would produce.
  SweepPoint point(std::size_t i) const;
  std::vector<SweepPoint> points() const;

  /// Merges a shard into this campaign: both must describe the same
  /// campaign (seed, cycle target, identical client columns — throws
  /// std::invalid_argument otherwise); per point, whichever side has
  /// simulated more cycles wins wholesale. Disjoint shards merge into
  /// exactly the uninterrupted campaign because points are independent
  /// streams.
  void merge_from(const FleetColumns& other);
};

/// Columnar campaign state of one ResilientFleet sweep. Resilience points
/// advance whole (the store-and-forward buffer threads state across a
/// point's cycles), so instead of a cycle cursor each point carries a
/// done flag plus its full ResiliencePoint result as per-field columns.
struct ResilienceColumns {
  std::uint64_t seed = 0;
  std::int32_t cycles_target = 0;

  std::vector<std::int32_t> clients;
  std::vector<std::uint8_t> done;

  std::vector<std::int32_t> servers_used;
  std::vector<std::int32_t> degraded_cycles;
  std::vector<std::int32_t> edge_fallback_cycles;
  std::vector<std::int64_t> fallback_client_cycles;
  std::vector<std::int64_t> shed_client_cycles;
  std::vector<std::int64_t> browned_client_cycles;
  std::vector<std::int64_t> sensor_mute_client_cycles;

  StatColumns lost_clients;
  StatColumns edge_energy;
  StatColumns cloud_energy;
  StatColumns total_energy;

  std::vector<double> bytes_generated;
  std::vector<double> bytes_served;
  std::vector<double> bytes_recovered;
  std::vector<double> bytes_dropped;
  std::vector<double> bytes_pending;
  std::vector<double> bytes_lost;

  static ResilienceColumns start(const std::vector<int>& client_counts,
                                 std::uint64_t seed, int cycles_per_point);

  std::size_t size() const noexcept { return clients.size(); }
  bool complete() const noexcept;
  std::size_t points_done() const noexcept;

  ResiliencePoint point(std::size_t i) const;
  std::vector<ResiliencePoint> points() const;
  void set_point(std::size_t i, const ResiliencePoint& p);

  /// Same campaign-merge contract as FleetColumns::merge_from; a done
  /// point beats a pending one, two done points must agree on nothing —
  /// the first side wins (streams make both sides identical anyway).
  void merge_from(const ResilienceColumns& other);
};

/// Columnar image of a DES farm run (hive::run_hives_parallel) — one
/// contiguous array per per-hive field (final battery level, wake-up
/// counters, outage time, energy ledger). This is the million-hive state
/// the checkpoint layer snapshots and restores in bulk; to_runs() and
/// from_runs() are exact representation transfers.
struct FarmColumns {
  std::vector<double> battery_level;
  std::vector<std::uint64_t> wakeups_attempted;
  std::vector<std::uint64_t> wakeups_completed;
  std::vector<std::uint64_t> wakeups_skipped;
  std::vector<double> outage_time;
  std::vector<double> harvested;
  std::vector<double> consumed;
  std::vector<std::int32_t> regime_transitions;
  std::vector<std::uint64_t> wakeups_degraded;
  std::vector<std::uint64_t> wakeups_muted;
  std::vector<std::uint64_t> events_executed;

  static FarmColumns from_runs(const std::vector<hive::HiveRun>& runs);
  std::vector<hive::HiveRun> to_runs() const;

  std::size_t size() const noexcept { return battery_level.size(); }
  void resize(std::size_t count);
};

}  // namespace beesim::core
