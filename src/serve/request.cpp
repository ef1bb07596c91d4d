#include "serve/request.hpp"

#include <stdexcept>

namespace beesim::serve {
namespace {

// Group-hash kind tags. kSweep and kWhatIf share one tag deliberately:
// their compute unit is the same SweepPoint, so they must share cache
// entries. kResilience computes ResiliencePoints and gets its own tag.
constexpr std::uint8_t kGroupSweep = 0x53;       // 'S'
constexpr std::uint8_t kGroupResilience = 0x52;  // 'R'

}  // namespace

const char* to_string(RequestKind kind) noexcept {
  switch (kind) {
    case RequestKind::kSweep: return "sweep";
    case RequestKind::kWhatIf: return "what_if";
    case RequestKind::kResilience: return "resilience";
  }
  return "unknown";
}

const char* to_string(Admission admission) noexcept {
  switch (admission) {
    case Admission::kAdmitted: return "admitted";
    case Admission::kRejectedQueueFull: return "queue_full";
    case Admission::kRejectedOverloaded: return "overloaded";
    case Admission::kRejectedInvalid: return "invalid";
    case Admission::kRejectedShutdown: return "shutdown";
  }
  return "unknown";
}

Request Request::make_sweep(SweepRequest r, std::uint64_t tenant) {
  Request out;
  out.kind = RequestKind::kSweep;
  out.tenant = tenant;
  out.sweep = std::move(r);
  return out;
}

Request Request::make_what_if(WhatIfRequest r, std::uint64_t tenant) {
  Request out;
  out.kind = RequestKind::kWhatIf;
  out.tenant = tenant;
  out.what_if = std::move(r);
  return out;
}

Request Request::make_resilience(ResilienceRequest r, std::uint64_t tenant) {
  Request out;
  out.kind = RequestKind::kResilience;
  out.tenant = tenant;
  out.resilience = std::move(r);
  return out;
}

const std::vector<int>& Request::client_counts() const noexcept {
  switch (kind) {
    case RequestKind::kSweep: return sweep.client_counts;
    case RequestKind::kWhatIf: return what_if.client_counts;
    case RequestKind::kResilience: return resilience.client_counts;
  }
  return sweep.client_counts;
}

int Request::cycles_per_point() const noexcept {
  switch (kind) {
    case RequestKind::kSweep: return sweep.cycles_per_point;
    case RequestKind::kWhatIf: return what_if.cycles_per_point;
    case RequestKind::kResilience: return resilience.cycles_per_point;
  }
  return 1;
}

bool valid(const Request& request) noexcept {
  const auto& counts = request.client_counts();
  if (counts.empty() || request.cycles_per_point() < 1) return false;
  for (int n : counts)
    if (n < 1) return false;
  const auto edge_service = [](core::ServiceModel s) {
    return s == core::ServiceModel::kSvm || s == core::ServiceModel::kCnn;
  };
  try {
    switch (request.kind) {
      case RequestKind::kSweep:
        core::validate(request.sweep.params);
        return true;
      case RequestKind::kWhatIf: {
        const WhatIfRequest& r = request.what_if;
        if (!edge_service(r.service)) return false;
        core::validate(r.params);
        // The verdict prices the edge-only client at fan-out.
        core::validate_edge_only(r.service, r.params.client.period);
        return true;
      }
      case RequestKind::kResilience: {
        const ResilienceRequest& r = request.resilience;
        if (!edge_service(r.service)) return false;
        core::ResilientFleet::validate(r.params, r.plan, r.policy, r.service);
        return true;
      }
    }
  } catch (const std::invalid_argument&) {
  }
  return false;
}

core::Hash128 scenario_group(const Request& request) {
  core::CanonicalHasher h;
  switch (request.kind) {
    case RequestKind::kSweep:
      h.tag(kGroupSweep);
      hash_append(h, request.sweep.params);
      h.i64(request.sweep.cycles_per_point);
      h.u64(request.sweep.seed);
      break;
    case RequestKind::kWhatIf:
      // Same tag and fields as kSweep: the edge-only baseline is an
      // analytic constant derived at fan-out time, not part of the
      // compute unit, so what-ifs share sweep cache entries.
      h.tag(kGroupSweep);
      hash_append(h, request.what_if.params);
      h.i64(request.what_if.cycles_per_point);
      h.u64(request.what_if.seed);
      break;
    case RequestKind::kResilience:
      h.tag(kGroupResilience);
      hash_append(h, request.resilience.params);
      hash_append(h, request.resilience.plan);
      hash_append(h, request.resilience.policy);
      h.i64(static_cast<std::int64_t>(request.resilience.service));
      h.i64(request.resilience.cycles_per_point);
      h.u64(request.resilience.seed);
      break;
  }
  return h.digest();
}

}  // namespace beesim::serve
