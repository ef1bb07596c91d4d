#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/hash128.hpp"
#include "core/orchestrator.hpp"
#include "energy/battery.hpp"
#include "net/link.hpp"

namespace beesim::core {

/// Where one service of one device class runs in a planned configuration —
/// the decision variable of the placement search (docs/PLACEMENT.md).
/// kShed means the service's data is deliberately not processed for that
/// class: zero execution and upload energy, counted as loss instead.
enum class Assignment : std::uint8_t { kEdge = 0, kCloud = 1, kShed = 2 };

/// "edge" / "cloud" / "shed".
const char* to_string(Assignment a) noexcept;

/// One hardware class of a heterogeneous fleet: `count` hives sharing a
/// compute/energy profile, a battery state and an uplink quality. The
/// paper measures a single RPi 3B+ class; real apiaries mix device
/// generations, solar exposures and distances to the gateway, and the
/// placement search trades them off per class.
struct DeviceClassSpec {
  std::string name;
  /// Hives of this class. 0 is allowed (the class contributes nothing).
  int count = 0;
  /// Edge execution-time multiplier relative to the calibrated RPi 3B+
  /// (a slower board is > 1).
  double compute_scale = 1.0;
  /// Edge active-power multiplier relative to the calibrated RPi 3B+.
  double energy_scale = 1.0;
  /// Battery state of charge in (0, 1] — scarce joules rank edge energy
  /// higher during the search (energy::Battery::state_of_charge()).
  double battery_soc = 1.0;
  /// Uplink rate multiplier in (0, 1] relative to the calibrated slot
  /// uplink (net::Link expected throughput ratio).
  double link_quality = 1.0;

  /// Builds a class from live device state: the battery's state of charge
  /// and the link's mean throughput relative to the deployed rooftop
  /// 802.11n preset (net::Link::wifi_80211n()).
  static DeviceClassSpec calibrated(std::string name, int count,
                                    const energy::Battery& battery,
                                    const net::Link& link);

  /// Throws std::invalid_argument on negative counts, non-positive or
  /// non-finite scales, or SoC / link quality outside (0, 1].
  void validate() const;
};

/// Tuning of the beam/DP placement search. Every field is validated —
/// construction throws std::invalid_argument on nonsensical values
/// (zero beam width, negative weights, ...).
struct FleetSearchOptions {
  /// Beam states kept per device-class level (>= 1). Width 1 degenerates
  /// to a scalarized greedy-by-class walk; the default explores enough to
  /// dominate the per-service greedy baseline on every tested fleet.
  int beam_width = 32;
  /// Pareto points kept in the returned frontier (>= 1; lowest-energy
  /// points are kept when the cap binds).
  int max_frontier = 64;
  /// Cloud servers available to the whole fleet (all classes share the
  /// pool); 0 = unbounded. This is the coupling that makes per-class
  /// choices interact: a server granted to one class is gone for the
  /// next.
  int max_cloud_servers = 0;
  /// When false every kCloud assignment is infeasible — the regime during
  /// a cloud/link outage window (docs/RESILIENCE.md).
  bool cloud_available = true;
  /// Scalarization used only to *rank* beam states (the frontier itself
  /// is pure Pareto): joules charged per megabyte of shed data. The
  /// default is the Table II send-audio cost density, 37.3 J per 441 kB
  /// clip ≈ 84.6 J/MB.
  double loss_weight_j_per_mb = 37.3 / 0.441;
  /// Battery weighting floor: a class's edge joules are ranked at
  /// edge_joule_weight / max(battery_soc, soc_floor), so a nearly flat
  /// battery never produces an unbounded weight. In (0, 1].
  double soc_floor = 0.2;

  /// Throws std::invalid_argument on out-of-range values.
  void validate() const;
};

/// One complete per-class × per-service assignment with its exact score.
/// `choice` is flat class-major: choice[cls * services + svc].
struct FleetAssignment {
  std::vector<Assignment> choice;
  /// Fleet-wide joules per cycle (raw, unweighted — the frontier axis).
  double energy_per_cycle = 0.0;
  /// Payload bytes per cycle deliberately not processed (shed services).
  double loss_bytes_per_cycle = 0.0;
  /// loss_bytes_per_cycle over the fleet's total payload bytes per cycle.
  double loss_fraction = 0.0;
  /// Cloud servers the assignment occupies (summed across classes).
  int servers_used = 0;
  bool feasible = true;
  /// Canonical identity of the choice vector — the deterministic
  /// tie-break of the search (equal scores order by hash).
  Hash128 hash;

  Assignment at(int cls, int svc, int services) const {
    return choice[static_cast<std::size_t>(cls * services + svc)];
  }
};

/// Energy-vs-loss Pareto frontier of placement configurations, sorted by
/// energy ascending (so loss is non-increasing along the vector). No
/// point dominates another (tested invariant), and the frontier is
/// byte-identical across runs and thread counts for fixed inputs
/// (docs/PLACEMENT.md, "Determinism contract").
struct ParetoFrontier {
  std::vector<FleetAssignment> points;

  /// The cheapest configuration whose loss fraction is within
  /// `max_loss_fraction`; nullptr when none qualifies.
  const FleetAssignment* min_energy(double max_loss_fraction) const noexcept;
};

/// Counters of one search run, mirrored into the `core.placement.*`
/// metrics when observability is enabled (docs/OBSERVABILITY.md).
struct SearchStats {
  std::int64_t candidates_expanded = 0;  ///< beam states generated
  std::int64_t candidates_pruned = 0;    ///< cut by DP bound or budget
  std::int64_t evaluations = 0;          ///< exact class evaluations
  int frontier_size = 0;
  double elapsed_seconds = 0.0;
};

/// The optimizing placement orchestrator (ROADMAP item 3): enumerates
/// per-service edge/cloud/shed assignments over a fleet of heterogeneous
/// device classes, scores them with the existing OrchestrationCosts model
/// (per class, through ServiceOrchestrator::evaluate), couples classes
/// through the shared cloud-server budget, and explores the space with
/// beam search plus a DP lower bound. The output is an energy-vs-loss
/// Pareto frontier rather than a single plan; `greedy()` is the baseline
/// the frontier is guaranteed to match or beat (the beam is seeded with
/// the greedy completion). docs/PLACEMENT.md documents the full model.
class PlacementSearch {
 public:
  /// Validates everything up front: classes and options via their
  /// validate(), services non-empty and <= kMaxServices, classes
  /// <= kMaxClasses, base options via ServiceOrchestrator.
  PlacementSearch(std::vector<DeviceClassSpec> classes,
                  std::vector<hive::ServiceSpec> services,
                  OrchestratorOptions base, FleetSearchOptions options = {});

  /// Runs the beam/DP search. `threads` parallelizes only the per-class
  /// option-table build (results land in per-class slots, so the frontier
  /// is bit-identical for any thread count). Fills `stats` when non-null.
  ParetoFrontier search(unsigned threads = 0,
                        SearchStats* stats = nullptr) const;

  /// The greedy baseline: walk classes in order, pick each service's
  /// cheapest standalone placement, repair infeasibility by flipping the
  /// largest edge services cloudward and shedding as a last resort —
  /// the per-service local policy an unsearched orchestrator would run.
  FleetAssignment greedy() const;

  /// Canonical identity of one choice vector (the FleetAssignment hash).
  Hash128 assignment_hash(const std::vector<Assignment>& choice) const;

  const std::vector<DeviceClassSpec>& classes() const noexcept {
    return classes_;
  }
  const std::vector<hive::ServiceSpec>& services() const noexcept {
    return services_;
  }
  const FleetSearchOptions& options() const noexcept { return options_; }

  /// Caps keeping the per-class option tables (3^services entries each)
  /// and the beam levels bounded.
  static constexpr int kMaxServices = 6;
  static constexpr int kMaxClasses = 64;

 private:
  struct ClassOption;
  std::vector<std::vector<ClassOption>> build_option_tables(
      unsigned threads, SearchStats& stats) const;
  FleetAssignment greedy_from_tables(
      const std::vector<std::vector<ClassOption>>& tables) const;
  FleetAssignment complete(
      const std::vector<std::vector<ClassOption>>& tables,
      const std::vector<int>& option_per_class) const;

  std::vector<DeviceClassSpec> classes_;
  std::vector<hive::ServiceSpec> services_;
  OrchestratorOptions base_;
  FleetSearchOptions options_;
  double total_bytes_per_cycle_ = 0.0;
};

}  // namespace beesim::core
