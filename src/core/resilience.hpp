#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/network_sim.hpp"
#include "core/placement_search.hpp"
#include "fault/degradation.hpp"
#include "fault/injector.hpp"

namespace beesim::core {

struct ResilienceColumns;

/// Graceful-degradation policy of the resilient fleet — which reactions
/// are armed when a fault window opens (docs/RESILIENCE.md documents the
/// full policy table and the per-cycle decision pipeline).
struct ResiliencePolicy {
  /// Cloud outage ⇒ surviving clients run the service at the edge (the
  /// paper's edge-only scenario energy) instead of idling.
  bool edge_fallback = true;
  /// Link outage ⇒ payloads queue in a bounded store-and-forward buffer
  /// and drain after the window instead of vanishing.
  bool store_and_forward = true;
  /// Store-and-forward bound per deployed client (default: 8 of the
  /// Table II 441 kB audio clips — an SD-card ring buffer).
  util::Bytes buffer_bytes_per_client = 8.0 * 441000.0;
  /// Battery derate ⇒ a matching fraction of the fleet skips the cycle
  /// (sleeps through it) instead of browning out mid-routine.
  bool load_shedding = true;
  /// Payload each client uploads per healthy cycle (Table II audio clip).
  util::Bytes upload_bytes_per_client = 441000.0;
  /// Energy one payload upload costs at the edge (Table II "send audio",
  /// 37.3 J) — credited during link outages, billed again for catch-up.
  util::Joules upload_energy_per_payload = 37.3;
  /// Catch-up drain budget per healthy cycle, as a multiple of the
  /// nominal per-cycle upload volume.
  double catchup_factor = 1.0;
  /// Placement engine consulted when a cloud/link outage opens. kGreedy
  /// is the fixed PR 4 reaction (every survivor falls back to local
  /// inference); kBeam runs the PlacementSearch over `classes` once at
  /// construction and may shed the battery-scarcest classes instead
  /// (docs/PLACEMENT.md, "The optimizer knob").
  PlacementOptimizer optimizer = PlacementOptimizer::kGreedy;
  /// Heterogeneous device classes the beam optimizer plans over. Empty
  /// means a homogeneous fleet — the optimizer then has nothing to trade
  /// and kBeam behaves exactly like kGreedy.
  std::vector<DeviceClassSpec> classes;
  /// Largest loss fraction the beam optimizer may spend during an outage
  /// (ParetoFrontier::min_energy bound). 0 keeps the outage lossless —
  /// kBeam is then bit-identical to kGreedy by construction.
  double outage_loss_tolerance = 0.0;
  /// Beam/DP tuning forwarded to the PlacementSearch.
  FleetSearchOptions search;

  /// Throws std::invalid_argument naming the first field ResilientFleet
  /// cannot run: a negative or non-finite buffer bound, upload energy or
  /// catch-up factor, a non-positive upload size, a loss tolerance
  /// outside [0, 1], or an invalid search option or device class.
  /// ResilientFleet's constructor and the serving layer's admission both
  /// call it.
  void validate() const;
};

/// Per-sweep-point outcome of a resilient fleet run: the usual energy
/// statistics plus a data-delivery ledger. Every produced byte lands in
/// exactly one of served / recovered / dropped / pending (conservation is
/// tested); bytes_lost counts payloads the faults prevented from ever
/// being produced (shed, browned-out, or mute client-cycles).
struct ResiliencePoint {
  int initial_clients = 0;
  int cycles = 0;
  int servers_used = 0;  // max across the point's cycles
  int degraded_cycles = 0;
  int edge_fallback_cycles = 0;
  /// Client-cycles served by local inference during cloud/link outages.
  std::int64_t fallback_client_cycles = 0;
  std::int64_t shed_client_cycles = 0;
  /// Client-cycles browned out mid-routine (derate with shedding off).
  std::int64_t browned_client_cycles = 0;
  std::int64_t sensor_mute_client_cycles = 0;
  util::RunningStats lost_clients;
  util::RunningStats edge_energy;   // fleet-wide joules per cycle
  util::RunningStats cloud_energy;  // fleet-wide joules per cycle
  util::RunningStats total_energy;  // edge + cloud per cycle

  /// Data-delivery ledger, in payload bytes over the whole point.
  double bytes_generated = 0.0;  ///< produced by clients that woke
  double bytes_served = 0.0;     ///< uploaded or edge-processed on time
  double bytes_recovered = 0.0;  ///< drained from the buffer after an outage
  double bytes_dropped = 0.0;    ///< store-and-forward overflow
  double bytes_pending = 0.0;    ///< still buffered when the run ended
  double bytes_lost = 0.0;       ///< never produced (shed/browned/mute)

  /// Fraction of generated bytes eventually served (1.0 when nothing was
  /// generated — an empty fleet loses nothing).
  double delivery_fraction() const noexcept;
  /// Mean per-initial-client joules per cycle, as in SweepPoint.
  double total_per_client() const noexcept;
  double edge_per_client() const noexcept;
  double cloud_per_client() const noexcept;
};

/// The fault-aware large-scale fleet: wraps LargeScaleSimulator with a
/// compiled FaultPlan and the graceful-degradation policies. The contract
/// the resilience anchors enforce: with an **empty plan** every cycle
/// delegates verbatim to the base simulator, so sweep results are
/// bit-identical to LargeScaleSimulator::sweep (same seed streams, same
/// draw order) — faults cost nothing until they are scheduled.
///
/// Per faulted cycle, the degradation pipeline runs in a fixed order:
///  1. battery derate ⇒ load shedding (a matching fleet fraction sleeps);
///  2. sensor dropout (mute clients run the routine, deliver nothing);
///  3. loss model C dropout on the remaining awake clients;
///  4. placement: cloud outage ⇒ edge fallback; link outage ⇒
///     store-and-forward; brownout/degraded-link ⇒ reduced-capacity
///     allocation; healthy cycles drain the buffer (catch-up).
///
/// Every cycle, clean or faulted, prices its deterministic half through
/// a per-point CycleMemo: the base simulator's for clean cycles, link
/// outages and base-geometry faults, one per reduced-capacity sibling
/// for brownout/degraded-link cycles.
class ResilientFleet {
 public:
  /// `service` selects the edge-fallback cost table (the edge-only
  /// client of Tables I/II for that model). Runs validate() first.
  ResilientFleet(FleetParams params, fault::FaultPlan plan,
                 ResiliencePolicy policy = {},
                 ServiceModel service = ServiceModel::kCnn);

  /// Throws std::invalid_argument naming what the constructor cannot
  /// run: invalid `params` (core::validate) or `policy`, an edge-only
  /// routine for (`service`, period) longer than the period, or a
  /// brownout/degraded-link geometry of `plan` that fails core::validate
  /// (a stretched slot that no longer fits the cycle). Compiles `plan`
  /// only when it has a brownout or degraded-link window. The serving
  /// layer's admission calls it for resilience requests.
  static void validate(const FleetParams& params,
                       const fault::FaultPlan& plan,
                       const ResiliencePolicy& policy, ServiceModel service);

  /// Runs `cycles` consecutive cycles at a fixed fleet size, threading
  /// the store-and-forward state across them. Deterministic given `rng`.
  ResiliencePoint run_point(int clients, int cycles, util::Rng& rng) const;

  /// ResilienceColumns::start -> advance -> points(): one Rng stream per
  /// (seed, fleet size) as in LargeScaleSimulator::sweep, so results are
  /// bit-identical across thread counts and sweep ranges.
  std::vector<ResiliencePoint> sweep(const std::vector<int>& client_counts,
                                     std::uint64_t seed,
                                     int cycles_per_point = 1,
                                     unsigned threads = 0) const;

  /// Resumable form of sweep(): completes up to `max_points` not-yet-done
  /// points of `columns` (0 = all of them) and stores each result as its
  /// point. Resilience points are advanced whole — the store-and-forward
  /// buffer threads state across a point's cycles, so the checkpoint
  /// granularity is one point, not one cycle (docs/CHECKPOINT.md). Each
  /// point draws from its own
  /// Rng::for_stream(seed, n) stream, so any subset order lands on
  /// results bit-identical to one uninterrupted sweep(). With
  /// `shard_count` > 1 only points congruent to `shard_index` run (the
  /// cross-process fan-out; see LargeScaleSimulator::advance). Returns
  /// whether every point is now done.
  bool advance(ResilienceColumns& columns, int max_points = 0,
               unsigned threads = 0, int shard_index = 0,
               int shard_count = 1) const;

  const LargeScaleSimulator& base() const noexcept { return base_; }
  /// The source fault plan — part of the campaign identity the resilience
  /// checkpoints hash (core::resilience_campaign_hash).
  const fault::FaultPlan& plan() const noexcept { return plan_; }
  const fault::FaultInjector& injector() const noexcept { return injector_; }
  const ResiliencePolicy& policy() const noexcept { return policy_; }
  /// Per-cycle energy of the edge-only fallback client.
  util::Joules edge_fallback_cycle_energy() const noexcept {
    return edge_fallback_energy_;
  }
  /// Fleet fraction the beam optimizer sheds during outage cycles
  /// (0 under kGreedy, under an empty class list, or under a zero loss
  /// tolerance — the greedy-identical regimes).
  double outage_shed_fraction() const noexcept {
    return outage_shed_fraction_;
  }

 private:
  /// One cycle's contribution to the point's statistics.
  struct CycleOutcome {
    int servers_used = 0;
    int lost_clients = 0;
    util::Joules edge_energy = 0.0;
    util::Joules cloud_energy = 0.0;
  };
  /// A point's memos: the base simulator's, then one per sibling.
  struct PointMemos {
    explicit PointMemos(const ResilientFleet& fleet);
    CycleMemo base;
    std::vector<CycleMemo> siblings;
  };

  /// validate() given the plan's distinct sibling (capacity, bandwidth)
  /// factor pairs.
  static void validate(
      const FleetParams& params,
      const std::vector<std::pair<double, double>>& sibling_factors,
      const ResiliencePolicy& policy, ServiceModel service);
  /// Faulted cycle `cycle`: books its shed/mute/ledger fields into
  /// `point` and returns the statistics it contributes.
  CycleOutcome simulate_faulted_cycle(int clients, int cycle,
                                      const fault::CycleFaults& faults,
                                      util::Rng& rng,
                                      fault::StoreAndForwardBuffer& buffer,
                                      PointMemos& memos,
                                      ResiliencePoint& point) const;

  LargeScaleSimulator base_;
  fault::FaultPlan plan_;  // member order: injector_ compiles from plan_
  fault::FaultInjector injector_;
  ResiliencePolicy policy_;
  util::Joules edge_fallback_energy_ = 0.0;
  double outage_shed_fraction_ = 0.0;  // decided once, at construction
  // Reduced-capacity siblings for brownout/degraded-link cycles, built
  // eagerly at construction (one per distinct factor pair in the plan) so
  // run_point stays const and thread-safe, and each plan cycle's index
  // into them (-1: the base geometry).
  std::vector<LargeScaleSimulator> siblings_;
  std::vector<int> sibling_of_cycle_;
};

}  // namespace beesim::core
