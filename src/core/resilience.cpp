#include "core/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/fleet_columns.hpp"
#include "hive/services.hpp"
#include "obs/catalog.hpp"

namespace beesim::core {
namespace {

/// Books `active` connected clients' payloads as served; with `catch_up`
/// they also drain the buffer, its send energy added to `edge`.
void deliver(const ResiliencePolicy& policy, int active, bool catch_up,
             fault::StoreAndForwardBuffer& buffer, ResiliencePoint& point,
             double& edge) {
  const double upload = policy.upload_bytes_per_client;
  const double produced = static_cast<double>(active) * upload;
  point.bytes_generated += produced;
  point.bytes_served += produced;
  if (!catch_up || !policy.store_and_forward || buffer.buffered() <= 0.0)
    return;
  // Catch-up: surviving clients re-upload queued payloads, billed at the
  // Table II send-audio energy per payload.
  const double budget =
      policy.catchup_factor * upload * static_cast<double>(active);
  const double drained = buffer.drain(budget);
  point.bytes_recovered += drained;
  edge += drained / upload * policy.upload_energy_per_payload;
}

/// A reduced-capacity cycle's (cloud capacity, link bandwidth) factors.
using Factors = std::pair<double, double>;

/// The distinct factor pairs of `injector`'s connected reduced-capacity
/// cycles (brownout and/or degraded link, no outage), in first-seen
/// order, and each plan cycle's index into them (-1: no sibling).
struct SiblingPlan {
  std::vector<Factors> factors;
  std::vector<int> of_cycle;
};

SiblingPlan plan_siblings(const fault::FaultInjector& injector) {
  SiblingPlan out;
  out.of_cycle.assign(static_cast<std::size_t>(injector.horizon()), -1);
  for (int c = 0; c < injector.horizon(); ++c) {
    const fault::CycleFaults& f = injector.at(c);
    if (f.link_outage || f.cloud_outage) continue;
    if (f.cloud_capacity_factor >= 1.0 && f.link_bandwidth_factor >= 1.0)
      continue;
    const Factors key{f.cloud_capacity_factor, f.link_bandwidth_factor};
    const auto at = std::find(out.factors.begin(), out.factors.end(), key);
    out.of_cycle[static_cast<std::size_t>(c)] =
        static_cast<int>(at - out.factors.begin());
    if (at == out.factors.end()) out.factors.push_back(key);
  }
  return out;
}

/// The sibling geometry of `params` under `f`: a brownout leaves only a
/// fraction of the slot's parallelism; a degraded link stretches every
/// slot's receive window.
FleetParams sibling_params(FleetParams params, const Factors& f) {
  params.server.max_parallel = std::max(
      1, static_cast<int>(std::floor(
             static_cast<double>(params.server.max_parallel) * f.first)));
  params.server.receive_time /= f.second;
  return params;
}

}  // namespace

double ResiliencePoint::delivery_fraction() const noexcept {
  return bytes_generated > 0.0
             ? (bytes_served + bytes_recovered) / bytes_generated
             : 1.0;
}

double ResiliencePoint::total_per_client() const noexcept {
  return initial_clients > 0
             ? total_energy.mean() / static_cast<double>(initial_clients)
             : 0.0;
}

double ResiliencePoint::edge_per_client() const noexcept {
  return initial_clients > 0
             ? edge_energy.mean() / static_cast<double>(initial_clients)
             : 0.0;
}

double ResiliencePoint::cloud_per_client() const noexcept {
  return initial_clients > 0
             ? cloud_energy.mean() / static_cast<double>(initial_clients)
             : 0.0;
}

void ResiliencePolicy::validate() const {
  const auto finite_nonnegative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  if (!finite_nonnegative(buffer_bytes_per_client))
    throw std::invalid_argument(
        "ResiliencePolicy: buffer_bytes_per_client must be finite and >= 0");
  if (!std::isfinite(upload_bytes_per_client) ||
      upload_bytes_per_client <= 0.0)
    throw std::invalid_argument(
        "ResiliencePolicy: upload_bytes_per_client must be finite and > 0");
  if (!finite_nonnegative(upload_energy_per_payload))
    throw std::invalid_argument(
        "ResiliencePolicy: upload_energy_per_payload must be finite and >= 0");
  if (!finite_nonnegative(catchup_factor))
    throw std::invalid_argument(
        "ResiliencePolicy: catchup_factor must be finite and >= 0");
  if (!finite_nonnegative(outage_loss_tolerance) ||
      outage_loss_tolerance > 1.0)
    throw std::invalid_argument(
        "ResiliencePolicy: outage_loss_tolerance outside [0, 1]");
  search.validate();
  for (const auto& cls : classes) cls.validate();
}

void ResilientFleet::validate(const FleetParams& params,
                              const fault::FaultPlan& plan,
                              const ResiliencePolicy& policy,
                              ServiceModel service) {
  core::validate(params);
  // Only brownout and degraded-link windows derive siblings, so a plan
  // without them is not compiled.
  const bool reduces = std::any_of(
      plan.windows().begin(), plan.windows().end(),
      [](const fault::FaultWindow& w) {
        return w.kind == fault::FaultKind::kCloudBrownout ||
               w.kind == fault::FaultKind::kLinkDegraded;
      });
  validate(params,
           reduces ? plan_siblings(fault::FaultInjector(plan)).factors
                   : std::vector<Factors>{},
           policy, service);
}

void ResilientFleet::validate(const FleetParams& params,
                              const std::vector<Factors>& sibling_factors,
                              const ResiliencePolicy& policy,
                              ServiceModel service) {
  policy.validate();
  validate_edge_only(service, params.client.period);
  for (const Factors& f : sibling_factors) {
    try {
      core::validate(sibling_params(params, f));
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(
          "ResilientFleet: the plan's reduced-capacity geometry (capacity "
          "factor " + std::to_string(f.first) + ", bandwidth factor " +
          std::to_string(f.second) + ") fails: " + e.what());
    }
  }
}

ResilientFleet::ResilientFleet(FleetParams params, fault::FaultPlan plan,
                               ResiliencePolicy policy, ServiceModel service)
    : base_(std::move(params)), plan_(std::move(plan)), injector_(plan_),
      policy_(policy) {
  SiblingPlan siblings = plan_siblings(injector_);
  validate(base_.params(), siblings.factors, policy_, service);
  edge_fallback_energy_ =
      ClientSpec::smart_beehive(Placement::kEdgeOnly, service,
                                base_.params().client.period)
          .cycle_energy();
  // Beam search: decide the outage reaction once, at construction.
  // The search runs over the policy's device classes with the cloud
  // marked unavailable (the outage regime) and the single fallback
  // service; the cheapest frontier point within the loss tolerance tells
  // us which fleet fraction sleeps instead of running local inference.
  // Without classes or with tolerance 0 the fraction stays 0, and the
  // per-cycle path below never branches — the empty-plan bit-identity
  // contract is untouched.
  if (policy_.edge_fallback && !policy_.classes.empty() &&
      policy_.outage_loss_tolerance > 0.0) {
    const hive::ServiceSpec fallback_service =
        service == ServiceModel::kCnn
            ? hive::services::queen_detection_cnn()
            : hive::services::queen_detection_svm();
    OrchestratorOptions base_opts;
    base_opts.max_parallel = base_.params().server.max_parallel;
    base_opts.cycle = base_.params().client.period;
    FleetSearchOptions search = policy_.search;
    search.cloud_available = false;  // nothing reaches the cloud anyway
    PlacementSearch optimizer(policy_.classes, {fallback_service},
                              base_opts, search);
    const ParetoFrontier frontier = optimizer.search();
    if (const FleetAssignment* pick =
            frontier.points.empty()
                ? nullptr
                : frontier.min_energy(policy_.outage_loss_tolerance)) {
      double total = 0.0;
      double shed = 0.0;
      for (std::size_t c = 0; c < policy_.classes.size(); ++c) {
        const double count =
            static_cast<double>(policy_.classes[c].count);
        total += count;
        if (pick->at(static_cast<int>(c), 0, 1) == Assignment::kShed)
          shed += count;
      }
      if (total > 0.0) outage_shed_fraction_ = shed / total;
    }
  }
  // Build the reduced-capacity siblings once: one simulator per distinct
  // (capacity, bandwidth) factor pair the plan ever produces, each
  // geometry already checked by validate().
  siblings_.reserve(siblings.factors.size());
  for (const Factors& f : siblings.factors)
    siblings_.emplace_back(sibling_params(base_.params(), f));
  sibling_of_cycle_ = std::move(siblings.of_cycle);
}

ResilientFleet::PointMemos::PointMemos(const ResilientFleet& fleet)
    : base(fleet.base_) {
  siblings.reserve(fleet.siblings_.size());
  for (const LargeScaleSimulator& sim : fleet.siblings_)
    siblings.emplace_back(sim);
}

ResiliencePoint ResilientFleet::run_point(int clients, int cycles,
                                          util::Rng& rng) const {
  if (clients < 0)
    throw std::invalid_argument("ResilientFleet: negative clients");
  if (cycles < 1)
    throw std::invalid_argument("ResilientFleet: cycles < 1");
  ResiliencePoint point;
  point.initial_clients = clients;
  point.cycles = cycles;
  fault::StoreAndForwardBuffer buffer(policy_.buffer_bytes_per_client *
                                      static_cast<double>(clients));
  PointMemos memos(*this);
  // The lossy sweep's loop: four of the five Welford lanes carry the
  // point's statistics, the fifth idles at zero.
  dsp::Welford5 st;
  for (int l = 0; l < 5; ++l) set_welford_lane(st, l, util::RunningStats());
  accumulate_cycles(st, cycles, [&](int c, double* row) {
    const fault::CycleFaults& faults = injector_.at(c);
    CycleOutcome out;
    if (!faults.any()) {
      // Clean cycle: delegate verbatim to the base simulator — with an
      // empty plan every cycle takes this path and the RNG draw sequence
      // is exactly LargeScaleSimulator::sweep's (bit-identity contract).
      const CycleResult r = base_.simulate_cycle(clients, rng, &memos.base);
      out = {r.servers_used, r.lost_clients, r.edge_energy, r.cloud_energy};
      deliver(policy_, r.surviving_clients(), true, buffer, point,
              out.edge_energy);
    } else {
      out = simulate_faulted_cycle(clients, c, faults, rng, buffer, memos,
                                   point);
    }
    point.servers_used = std::max(point.servers_used, out.servers_used);
    row[0] = static_cast<double>(out.lost_clients);
    row[1] = out.edge_energy;
    row[2] = out.cloud_energy;
    row[3] = out.edge_energy + out.cloud_energy;
    row[4] = 0.0;
  });
  point.lost_clients = welford_lane(st, 0);
  point.edge_energy = welford_lane(st, 1);
  point.cloud_energy = welford_lane(st, 2);
  point.total_energy = welford_lane(st, 3);
  point.bytes_pending = buffer.buffered();
  return point;
}

ResilientFleet::CycleOutcome ResilientFleet::simulate_faulted_cycle(
    int clients, int cycle, const fault::CycleFaults& faults, util::Rng& rng,
    fault::StoreAndForwardBuffer& buffer, PointMemos& memos,
    ResiliencePoint& point) const {
  const ClientSpec& client = base_.params().client;
  const double upload = policy_.upload_bytes_per_client;
  ++point.degraded_cycles;

  // 1. Battery derate: with load shedding a matching fleet fraction
  //    skips the cycle (sleeps); without it the same fraction browns out
  //    mid-routine — full routine energy spent, payload lost.
  int remaining = clients;
  int shed = 0;
  int browned = 0;
  if (faults.battery_factor < 1.0) {
    const int affected = std::clamp(
        static_cast<int>(std::lround((1.0 - faults.battery_factor) *
                                     static_cast<double>(remaining))),
        0, remaining);
    (policy_.load_shedding ? shed : browned) = affected;
    remaining -= affected;
  }
  // 2. Sensor dropout: mute clients run the routine but record nothing.
  int mute = 0;
  if (faults.sensor_dropout_fraction > 0.0) {
    mute = std::clamp(
        static_cast<int>(std::lround(faults.sensor_dropout_fraction *
                                     static_cast<double>(remaining))),
        0, remaining);
    remaining -= mute;
  }
  point.shed_client_cycles += shed;
  point.browned_client_cycles += browned;
  point.sensor_mute_client_cycles += mute;
  point.bytes_lost += static_cast<double>(shed + browned + mute) * upload;

  double edge =
      static_cast<double>(shed) * client.sleep_cycle_energy() +
      static_cast<double>(browned + mute) * client.cycle_energy();
  double cloud = 0.0;
  int servers = 0;
  int lost = 0;
  bool fell_back = false;

  if (faults.link_outage || faults.cloud_outage) {
    // No uplink path this cycle (an unreachable cloud and a dead cloud
    // look the same from the apiary).
    // 3. Loss model C still applies to the remaining awake clients.
    lost = base_.params().loss.draw_lost_clients(remaining, rng);
    int active = remaining - lost;
    edge += static_cast<double>(lost) * client.sleep_cycle_energy();
    if (outage_shed_fraction_ > 0.0) {
      // Beam-search verdict (decided at construction): this fleet
      // fraction sleeps through the outage instead of burning fallback
      // inference energy — their payloads are never produced (lost).
      const int opt_shed = std::clamp(
          static_cast<int>(std::lround(outage_shed_fraction_ *
                                       static_cast<double>(active))),
          0, active);
      edge += static_cast<double>(opt_shed) * client.sleep_cycle_energy();
      point.shed_client_cycles += opt_shed;
      point.bytes_lost += static_cast<double>(opt_shed) * upload;
      active -= opt_shed;
    }
    const double offered = static_cast<double>(active) * upload;
    point.bytes_generated += offered;
    // 4a. Placement: keep the service alive locally and/or queue the
    //     payloads for later.
    if (policy_.edge_fallback) {
      edge += static_cast<double>(active) * edge_fallback_energy_;
      ++point.edge_fallback_cycles;
      point.fallback_client_cycles += active;
      fell_back = active > 0;
    } else {
      // Routine ran, upload skipped: credit the send-audio energy.
      edge += static_cast<double>(active) *
              std::max(0.0, client.cycle_energy() -
                                policy_.upload_energy_per_payload);
    }
    if (policy_.store_and_forward) {
      const double accepted = buffer.offer(offered);
      point.bytes_dropped += offered - accepted;
    } else {
      point.bytes_dropped += offered;
    }
    if (!faults.cloud_outage && active > 0) {
      // Link outage with a live cloud: the provisioned servers idle the
      // whole cycle waiting for uploads that never arrive. Their count is
      // the base memo's entry for `active` survivors.
      const CycleResult idle = base_.simulate_ideal_cycle(active, &memos.base);
      servers = idle.servers_used;
      cloud = static_cast<double>(servers) *
              base_.effective_server().idle_power *
              base_.effective_server().cycle;
    }
  } else {
    // 4b. Degraded but connected: run the cycle through the
    //     reduced-capacity sibling (fewer parallel uploads per slot
    //     and/or stretched receive windows) and its memo, or through the
    //     base simulator and memo when only the battery or sensors are
    //     faulted; loss C draws inside.
    const int s = sibling_of_cycle_[static_cast<std::size_t>(cycle)];
    const auto k = static_cast<std::size_t>(s);
    const CycleResult r =
        s < 0 ? base_.simulate_cycle(remaining, rng, &memos.base)
              : siblings_[k].simulate_cycle(remaining, rng,
                                            &memos.siblings[k]);
    lost = r.lost_clients;
    edge += r.edge_energy;
    cloud = r.cloud_energy;
    servers = r.servers_used;
    // Catch-up drains only over a full-rate link.
    deliver(policy_, r.surviving_clients(),
            faults.link_bandwidth_factor >= 1.0, buffer, point, edge);
  }
  if (obs::enabled()) {
    static auto& degraded =
        obs::registry().counter(obs::metric::kFleetDegradedCycles);
    static auto& shed_clients =
        obs::registry().counter(obs::metric::kFleetShedClients);
    static auto& fallback =
        obs::registry().counter(obs::metric::kFleetEdgeFallbackCycles);
    degraded.inc();
    if (shed > 0) shed_clients.inc(static_cast<std::uint64_t>(shed));
    if (fell_back) fallback.inc();
  }
  return {servers, lost, edge, cloud};
}

}  // namespace beesim::core
