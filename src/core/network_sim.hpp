#pragma once

#include <cstdint>
#include <vector>

#include "core/allocator.hpp"
#include "core/client.hpp"
#include "core/loss.hpp"
#include "core/server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace beesim::core {

struct FleetColumns;

/// Everything that defines one large-scale deployment: the client type,
/// the server type, the allocator policy, and which losses apply.
struct FleetParams {
  ClientSpec client;
  ServerSpec server;
  FillPolicy policy = FillPolicy::kFillFirst;
  LossConfig loss;

  /// The paper's Section VI configuration: edge+cloud smart-beehive
  /// clients on a 5-minute cycle, cloud servers running the given queen
  /// detection model with `max_parallel` clients per time slot.
  static FleetParams paper_default(ServiceModel service = ServiceModel::kCnn,
                                   int max_parallel = 10,
                                   util::Seconds cycle = 300.0);
};

/// Throws std::invalid_argument naming the first field the fleet
/// simulator cannot run: a client period that differs from the server
/// cycle, max_parallel < 1, a non-finite or negative power, duration or
/// loss parameter, a fill policy outside the enum, client actions longer
/// than the period, or a full slot (loss model B folded in) that does not
/// fit the cycle. LargeScaleSimulator's constructor and the serving
/// layer's admission both call it, so a request the simulator would
/// crash on is refused before it runs.
void validate(const FleetParams& params);

/// Outcome of one simulated wake-up cycle across the whole fleet.
struct CycleResult {
  int initial_clients = 0;
  int lost_clients = 0;
  int servers_used = 0;
  int active_slots = 0;
  util::Joules edge_energy = 0.0;   // summed over all clients
  util::Joules cloud_energy = 0.0;  // summed over all servers

  int surviving_clients() const noexcept {
    return initial_clients - lost_clients;
  }
  /// Per-client metrics are divided by the *initial* client count, as in
  /// the paper's figures (their x-axis is the deployed fleet size).
  double edge_per_client() const noexcept;
  double cloud_per_client() const noexcept;
  double total_per_client() const noexcept;
};

/// Monte-Carlo statistics of one sweep point: `cycles` simulated cycles
/// at a fixed fleet size, accumulated as full streaming statistics
/// (mean/stddev/extrema) instead of the old truncated integer means —
/// rounding happens only at display time.
struct SweepPoint {
  int initial_clients = 0;
  int cycles = 0;
  int servers_used = 0;  // max across the point's cycles
  util::RunningStats lost_clients;
  util::RunningStats active_slots;
  util::RunningStats edge_energy;   // fleet-wide joules per cycle
  util::RunningStats cloud_energy;  // fleet-wide joules per cycle
  util::RunningStats total_energy;  // edge + cloud per cycle

  double mean_surviving() const noexcept;
  /// Display-time rounding of the mean dropout count.
  int lost_clients_display() const noexcept;
  /// Per-initial-client means, as in CycleResult.
  double edge_per_client() const noexcept;
  double cloud_per_client() const noexcept;
  double total_per_client() const noexcept;
  /// 95 % confidence half-width of total_per_client across the point's
  /// cycles (0 for fewer than 2 cycles).
  double total_per_client_ci95() const noexcept;
};

class LargeScaleSimulator;

/// Per-point memo of a cycle's deterministic half (servers, active slots,
/// cloud and survivor edge joules), a pure function of the surviving
/// count, which takes a handful of values per point: a fixed 64-entry
/// direct-mapped table keyed by that count, bound to one simulator.
class CycleMemo {
 public:
  explicit CycleMemo(const LargeScaleSimulator& sim) noexcept : sim_(&sim) {}

 private:
  friend class LargeScaleSimulator;
  static constexpr int kSlots = 64;
  struct Entry {
    int surviving = -1;  // -1: empty
    int servers_used = 0;
    int active_slots = 0;
    util::Joules cloud_energy = 0.0;
    util::Joules survivor_edge = 0.0;
  };

  const LargeScaleSimulator* sim_;
  Entry entries_[kSlots];
};

/// The analytic large-scale simulator of Section VI: allocates clients to
/// servers and time slots, applies the loss models, and accounts energy
/// for one cycle. Deterministic given the RNG (only loss C draws from
/// it).
class LargeScaleSimulator {
 public:
  explicit LargeScaleSimulator(FleetParams params);

  /// One cycle with `clients` deployed beehives: the loss C draw, then
  /// the deterministic half, looked up in `memo` (bound to this
  /// simulator, else std::invalid_argument) when one is given — except
  /// while obs::enabled(), so every metric still counts each cycle.
  CycleResult simulate_cycle(int clients, util::Rng& rng,
                             CycleMemo* memo = nullptr) const;

  /// One cycle without any stochastic loss (ignores loss model C): the
  /// deterministic half of simulate_cycle at zero lost clients, which is
  /// `memo`'s entry for `clients` survivors. The memo rule is
  /// simulate_cycle's.
  CycleResult simulate_ideal_cycle(int clients,
                                   CycleMemo* memo = nullptr) const;

  /// Sweeps a range of fleet sizes; each point runs `cycles_per_point`
  /// cycles and accumulates statistics (loss C makes single cycles
  /// noisy). FleetColumns::start -> advance -> points(): points run
  /// under util::parallel_for (`threads` = 0 picks hardware concurrency,
  /// 1 runs inline), each on its own RNG stream from (seed, fleet size) —
  /// results are bit-identical across thread counts AND across sweep
  /// ranges: the point at n=400 is the same in {400} or {100, ..., 400}.
  std::vector<SweepPoint> sweep(const std::vector<int>& client_counts,
                                std::uint64_t seed, int cycles_per_point = 1,
                                unsigned threads = 0) const;

  /// The lossy cycle loop: runs up to `max_cycles` further memoised
  /// cycles on every incomplete point of `columns` (0 = run each point to
  /// completion), updating the per-point statistic and RNG-cursor columns
  /// in place. Because the columns carry the exact accumulator
  /// representation and the generator state, any interleaving of advance
  /// calls — including stopping mid-point, checkpointing to disk, and
  /// resuming in another process — lands on results bit-identical to one
  /// uninterrupted run (tested against the scalar oracle in
  /// tests/test_checkpoint.cpp, enforced on fig6 CSVs by check.sh). With
  /// `shard_count` > 1 only points whose index is congruent to
  /// `shard_index` advance — the fan-out used to split one campaign
  /// across processes, each checkpointing its own shard file for a later
  /// merge. Returns whether the whole campaign (all shards) is complete.
  bool advance(FleetColumns& columns, int max_cycles = 0,
               unsigned threads = 0, int shard_index = 0,
               int shard_count = 1) const;

  /// The server spec with loss model B folded in (stretched slots).
  const ServerSpec& effective_server() const noexcept { return server_; }
  const FleetParams& params() const noexcept { return params_; }

 private:
  /// The deterministic half of a cycle with `lost` of `clients` asleep.
  CycleResult price_cycle(int clients, int lost, CycleMemo* memo) const;
  /// `memo` as a cycle may use it: null while obs::enabled(); throws
  /// std::invalid_argument when it is bound to another simulator.
  CycleMemo* usable(CycleMemo* memo) const;
  /// Per-server energy of class `cls` of a flat columnar layout; the
  /// class multiplicity is read from the layout for exact metric
  /// accounting. Agrees to rounding with pricing every slot of the
  /// materialized allocate() vectors (the oracle in
  /// tests/fleet_oracle.hpp).
  util::Joules server_energy(const CompactLayout& layout, int cls) const;

  FleetParams params_;
  ServerSpec server_;  // params_.server with transfer stretch applied
};

/// Convenience for sweeps: {lo, lo+step, ..., <= hi}.
std::vector<int> client_range(int lo, int hi, int step);

}  // namespace beesim::core
