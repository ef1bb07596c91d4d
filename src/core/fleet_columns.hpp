#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "dsp/simd_kernels.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace beesim::core {

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

/// Campaign state of one LargeScaleSimulator sweep: the points the sweep
/// produces, each with its RNG cursor. A point's `cycles` counts the
/// cycles simulated so far (cycles_target when it is done), its
/// statistics hold exactly the accumulators those cycles left, and its
/// cursor is the xoshiro state and Box-Muller cache where its stream
/// stopped. So any interleaving of advance calls, checkpoint saves and
/// restores (core/checkpoint.hpp, docs/CHECKPOINT.md), shards and merges
/// lands bit-identically on an uninterrupted sweep's results.
struct FleetColumns {
  /// Campaign identity: the sweep seed and per-point cycle target. The
  /// seed only names the campaign (streams derive from (seed, clients));
  /// both are persisted and checked on restore.
  std::uint64_t seed = 0;
  std::int32_t cycles_target = 0;

  /// One point per fleet size, in sweep order.
  std::vector<SweepPoint> rows;
  /// rng[i] is where point i's stream resumes.
  std::vector<util::Rng::State> rng;

  /// A fresh campaign: every point at zero cycles, every RNG cursor at
  /// the head of its Rng::for_stream(seed, clients) stream — exactly
  /// where sweep() would start it.
  static FleetColumns start(const std::vector<int>& client_counts,
                            std::uint64_t seed, int cycles_per_point);

  std::size_t size() const noexcept { return rows.size(); }
  bool complete() const noexcept { return points_done() == size(); }
  /// Points already at their cycle target.
  std::size_t points_done() const noexcept;
  /// Total cycles simulated so far across all points.
  std::int64_t cycles_total() const noexcept;

  /// Point `i` as sweep() would produce it once complete.
  SweepPoint point(std::size_t i) const { return rows[i]; }
  std::vector<SweepPoint> points() const { return rows; }

  /// Merges a shard into this campaign: both must describe the same
  /// campaign (seed, cycle target, identical fleet sizes — throws
  /// std::invalid_argument otherwise); per point, whichever side has
  /// simulated more cycles wins wholesale. Disjoint shards merge into
  /// exactly the uninterrupted campaign because points are independent
  /// streams.
  void merge_from(const FleetColumns& other);
};

/// Campaign state of one ResilientFleet sweep. Resilience points advance
/// whole (the store-and-forward buffer threads state across a point's
/// cycles), so a point is either pending, all zero with `cycles` 0, or
/// done, the full ResiliencePoint result with `cycles` equal to
/// cycles_target; no RNG cursor is kept.
struct ResilienceColumns {
  std::uint64_t seed = 0;
  std::int32_t cycles_target = 0;

  /// One point per fleet size, in sweep order.
  std::vector<ResiliencePoint> rows;

  static ResilienceColumns start(const std::vector<int>& client_counts,
                                 std::uint64_t seed, int cycles_per_point);

  std::size_t size() const noexcept { return rows.size(); }
  bool complete() const noexcept { return points_done() == size(); }
  std::size_t points_done() const noexcept;

  ResiliencePoint point(std::size_t i) const { return rows[i]; }
  std::vector<ResiliencePoint> points() const { return rows; }

  /// Same campaign-merge contract as FleetColumns::merge_from: a done
  /// point beats a pending one; of two done points the first side's
  /// stays (streams make both sides identical anyway).
  void merge_from(const ResilienceColumns& other);
};

}  // namespace beesim::core
