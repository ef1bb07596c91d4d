#pragma once

#include <vector>

#include "core/allocator.hpp"
#include "core/scenario.hpp"
#include "hive/services.hpp"

namespace beesim::core {

/// Placement decision for one service of the catalog.
struct ServicePlan {
  hive::ServiceSpec service;
  Placement placement = Placement::kEdgeOnly;
};

/// Per-client, per-cycle cost of a full placement assignment.
struct OrchestrationCosts {
  util::Joules edge_per_cycle = 0.0;  // one client's edge energy
  util::Joules cloud_per_client = 0.0;  // server share per client
  util::Seconds edge_active_time = 0.0;  // worst cycle
  int servers_used = 0;
  bool feasible = true;

  util::Joules total_per_client() const noexcept {
    return edge_per_cycle + cloud_per_client;
  }
};

/// Shared knobs of the multi-service placement evaluation. Validated by
/// ServiceOrchestrator's constructor: clients and max_parallel >= 1,
/// cycle / uplink / weight finite and positive (std::invalid_argument
/// otherwise — NaN is rejected, not silently accepted).
struct OrchestratorOptions {
  int clients = 100;
  int max_parallel = 10;
  util::Seconds cycle = 300.0;
  FillPolicy policy = FillPolicy::kFillFirst;
  /// Effective per-client uplink inside a synchronized slot, calibrated
  /// from Table II: one 441 kB audio clip takes the 15 s receive window,
  /// i.e. 29.4 kB/s (overheads folded in).
  double slot_uplink_bytes_per_s = 441000.0 / 15.0;
  /// Objective weight on edge joules relative to cloud joules. The paper
  /// argues "one joule of energy used at the edge is not equivalent to
  /// one joule ... on the cloud" — solar joules are scarcer. 1.0 ranks by
  /// raw total energy; >1 biases services off the hive.
  double edge_joule_weight = 1.0;
};

/// The multi-service placement optimizer — the "services orchestration"
/// of the paper's title, generalized beyond the single queen-detection
/// service it measures. Evaluates full placement assignments of a service
/// catalog (each service at the edge or in the cloud) against the
/// calibrated cycle model and picks the best by weighted energy.
///
/// Accounting follows the paper's scenarios:
///  - the edge always wakes, collects, and shuts down (Table I/II base);
///  - each edge-placed service adds its execution energy (amortized over
///    its period) and a single results upload per cycle covers them all;
///  - cloud-placed services add upload time proportional to their data
///    (amortized) and occupy the server's slot window (receive+process);
///  - server capacity is planned on the worst cycle (all periodic
///    services firing), energy billed on the average cycle.
class ServiceOrchestrator {
 public:
  explicit ServiceOrchestrator(const OrchestratorOptions& options);

  /// Costs of one specific assignment (plans must cover distinct
  /// services). `feasible` is false when the edge routine or the slot
  /// schedule does not fit the cycle.
  OrchestrationCosts evaluate(const std::vector<ServicePlan>& plans) const;

  struct Result {
    std::vector<ServicePlan> plans;
    OrchestrationCosts costs;
    /// Weighted objective (edge_joule_weight * edge + cloud).
    double objective = 0.0;
  };

  /// Exhaustive search over all 2^k placements of the catalog (k is
  /// small); returns the feasible assignment with the lowest weighted
  /// energy. Throws if nothing is feasible.
  Result optimize(const std::vector<hive::ServiceSpec>& services) const;

  /// Smallest fleet size in [lo, hi] at which this single service is
  /// cheaper in the cloud than at the edge (total energy, weight 1), if
  /// any — the per-service generalization of the Fig 7 crossover.
  std::optional<int> cloud_breakeven(const hive::ServiceSpec& service,
                                     int lo, int hi) const;

  const OrchestratorOptions& options() const noexcept { return options_; }

 private:
  OrchestratorOptions options_;
};

}  // namespace beesim::core
