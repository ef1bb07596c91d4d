#pragma once

#include <cstdint>
#include <vector>

#include "core/canonical.hpp"
#include "core/network_sim.hpp"
#include "core/placement.hpp"
#include "core/resilience.hpp"

namespace beesim::serve {

/// The request taxonomy of the serving layer (docs/SERVING.md): the three
/// question shapes tenants ask the paper's Section VI model.
enum class RequestKind {
  /// Fig 6/8-style sweep: energy statistics per fleet size.
  kSweep,
  /// Fig 7-style what-if placement: edge-only vs edge+cloud verdict per
  /// fleet size. Shares its compute units (SweepPoints) with kSweep.
  kWhatIf,
  /// Resilience query: a fleet under a scheduled FaultPlan with
  /// graceful-degradation policies.
  kResilience,
};

/// Human-readable kind name ("sweep", "what_if", "resilience").
const char* to_string(RequestKind kind) noexcept;

/// Fig 6-style sweep request: Monte-Carlo energy statistics for each
/// requested fleet size under one fleet configuration.
struct SweepRequest {
  core::FleetParams params;
  std::vector<int> client_counts;
  int cycles_per_point = 1;
  std::uint64_t seed = 42;
};

/// Fig 7-style what-if placement request: for each fleet size, would
/// edge+cloud (simulated under `params`) beat running `service` edge-only?
/// The edge-only side is the analytic per-cycle constant of Tables I/II,
/// so the compute unit is exactly a kSweep point — what-if requests
/// coalesce and cache-share with sweeps over the same `params`.
struct WhatIfRequest {
  core::FleetParams params;
  core::ServiceModel service = core::ServiceModel::kCnn;
  std::vector<int> client_counts;
  int cycles_per_point = 1;
  std::uint64_t seed = 42;
};

/// Resilience query: the fleet of `params` under `plan`, degraded by
/// `policy` (edge fallback at the `service` cost table), per fleet size.
struct ResilienceRequest {
  core::FleetParams params;
  fault::FaultPlan plan;
  core::ResiliencePolicy policy;
  core::ServiceModel service = core::ServiceModel::kCnn;
  std::vector<int> client_counts;
  int cycles_per_point = 1;
  std::uint64_t seed = 42;
};

/// One tenant request: a kind discriminator plus the matching payload
/// (only the payload selected by `kind` is read). `tenant` is an opaque
/// caller label carried through to metrics/debugging — it is NOT part of
/// the cache key, which is how overlapping questions from different
/// tenants land on the same cached points.
struct Request {
  RequestKind kind = RequestKind::kSweep;
  std::uint64_t tenant = 0;
  SweepRequest sweep;
  WhatIfRequest what_if;
  ResilienceRequest resilience;

  static Request make_sweep(SweepRequest r, std::uint64_t tenant = 0);
  static Request make_what_if(WhatIfRequest r, std::uint64_t tenant = 0);
  static Request make_resilience(ResilienceRequest r,
                                 std::uint64_t tenant = 0);

  /// The request's fleet-size list (whichever payload is active).
  const std::vector<int>& client_counts() const noexcept;
  int cycles_per_point() const noexcept;
};

/// True when the request is well-formed: at least one fleet size, every
/// fleet size >= 1, cycles_per_point >= 1, fleet params that pass
/// `core::validate`, and — for what-if and resilience requests — an SVM
/// or CNN edge service whose edge-only routine fits the period
/// (`core::validate_edge_only`). Resilience requests must also pass
/// `ResilientFleet::validate`: a valid policy, and a plan whose every
/// brownout/degraded-link geometry still fits a slot in the cycle.
/// Malformed requests are rejected at admission with
/// `Admission::kRejectedInvalid`, so a request the simulators would throw
/// or trap on never reaches a worker.
bool valid(const Request& request) noexcept;

/// The request's *scenario group* hash: everything that defines its
/// compute, except the fleet sizes. Requests in the same group share
/// compute units — the cache key of one point is (group, client_count).
/// kSweep and kWhatIf over the same (params, cycles, seed) hash to the
/// same group on purpose (the what-if verdict is derived analytically
/// from the sweep point); kResilience folds the plan, policy and
/// fallback service into the hash. docs/SERVING.md documents the
/// derivation and the bit-identity guarantee it rests on.
core::Hash128 scenario_group(const Request& request);

/// One served sweep point with its provenance: `from_cache` is true when
/// the point was returned from the content-addressed cache rather than
/// computed by this request's batch. The point payload is bit-identical
/// either way (tested); only the provenance flag depends on timing.
struct SweepPointResult {
  core::SweepPoint point;
  bool from_cache = false;
};

/// One served what-if verdict (core::PlacementComparison semantics, but
/// over the Monte-Carlo sweep point rather than the ideal cycle).
struct WhatIfResult {
  core::PlacementComparison comparison;
  bool from_cache = false;
};

/// One served resilience point with provenance.
struct ResiliencePointResult {
  core::ResiliencePoint point;
  bool from_cache = false;
};

/// The serving layer's answer. Only the vector matching the request kind
/// is populated; entries are in the order of the request's client_counts.
struct Response {
  RequestKind kind = RequestKind::kSweep;
  std::vector<SweepPointResult> sweep_points;
  std::vector<WhatIfResult> what_if;
  std::vector<ResiliencePointResult> resilience_points;

  /// Cache provenance summary: of `points_total` served points, how many
  /// came straight from the cache.
  int points_total = 0;
  int points_from_cache = 0;
};

/// Typed admission outcome of `SimulationService::submit`. Every submit
/// returns exactly one of these — an over-capacity request is *rejected*,
/// never silently dropped (ledger-tested).
enum class Admission {
  /// Accepted; the ticket's future will be fulfilled.
  kAdmitted,
  /// The target worker's lane already held `Config::queue_capacity`
  /// requests waiting for a worker (an instantaneous burst past the
  /// bound; a request answered inside submit() never takes a lane slot).
  kRejectedQueueFull,
  /// The service-wide in-flight bound (max_in_flight) was reached.
  kRejectedOverloaded,
  /// The request failed `valid()` — malformed, not a capacity problem.
  kRejectedInvalid,
  /// The service is shutting down and no longer accepts work.
  kRejectedShutdown,
};

/// Human-readable admission outcome ("admitted", "queue_full", ...).
const char* to_string(Admission admission) noexcept;

}  // namespace beesim::serve
