#include "core/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

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

/// Adds one cycle's outcome to the point's statistics.
void add_cycle(ResiliencePoint& point, int servers, int lost, double edge,
               double cloud) {
  point.servers_used = std::max(point.servers_used, servers);
  point.lost_clients.add(static_cast<double>(lost));
  point.edge_energy.add(edge);
  point.cloud_energy.add(cloud);
  point.total_energy.add(edge + cloud);
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

ResilientFleet::ResilientFleet(FleetParams params, fault::FaultPlan plan,
                               ResiliencePolicy policy, ServiceModel service)
    : base_(std::move(params)), plan_(std::move(plan)), injector_(plan_),
      policy_(policy) {
  if (policy_.buffer_bytes_per_client < 0.0)
    throw std::invalid_argument("ResilientFleet: negative buffer bound");
  if (policy_.upload_bytes_per_client <= 0.0)
    throw std::invalid_argument("ResilientFleet: non-positive upload size");
  if (policy_.upload_energy_per_payload < 0.0)
    throw std::invalid_argument("ResilientFleet: negative upload energy");
  if (policy_.catchup_factor < 0.0)
    throw std::invalid_argument("ResilientFleet: negative catchup factor");
  if (!std::isfinite(policy_.outage_loss_tolerance) ||
      policy_.outage_loss_tolerance < 0.0 ||
      policy_.outage_loss_tolerance > 1.0)
    throw std::invalid_argument(
        "ResilientFleet: outage_loss_tolerance outside [0, 1]");
  policy_.search.validate();
  for (const auto& cls : policy_.classes) cls.validate();
  edge_fallback_energy_ =
      ClientSpec::smart_beehive(Placement::kEdgeOnly, service,
                                base_.params().client.period)
          .cycle_energy();
  // Beam optimizer: decide the outage reaction once, at construction.
  // The search runs over the policy's device classes with the cloud
  // marked unavailable (the outage regime) and the single fallback
  // service; the cheapest frontier point within the loss tolerance tells
  // us which fleet fraction sleeps instead of running local inference.
  // All the greedy-identical regimes (kGreedy, no classes, tolerance 0)
  // leave the fraction at 0, and the per-cycle path below never branches
  // — the empty-plan bit-identity contract is untouched.
  if (policy_.optimizer == PlacementOptimizer::kBeam &&
      policy_.edge_fallback && !policy_.classes.empty() &&
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
  // (capacity, bandwidth) factor pair the plan ever produces. A degraded
  // geometry that cannot fit a single slot in the cycle throws here —
  // plan validation, not a mid-run surprise.
  for (int c = 0; c < injector_.horizon(); ++c) {
    const fault::CycleFaults& f = injector_.at(c);
    if (f.link_outage || f.cloud_outage) continue;
    if (f.cloud_capacity_factor >= 1.0 && f.link_bandwidth_factor >= 1.0)
      continue;
    const auto key =
        std::make_pair(f.cloud_capacity_factor, f.link_bandwidth_factor);
    if (degraded_.count(key) != 0) continue;
    FleetParams p = base_.params();
    // A brownout leaves only a fraction of the slot's parallelism; a
    // degraded link stretches every slot's receive window.
    p.server.max_parallel = std::max(
        1, static_cast<int>(std::floor(
               static_cast<double>(p.server.max_parallel) *
               f.cloud_capacity_factor)));
    p.server.receive_time /= f.link_bandwidth_factor;
    degraded_.emplace(key,
                      std::make_shared<const LargeScaleSimulator>(std::move(p)));
  }
}

const LargeScaleSimulator& ResilientFleet::degraded_sim(
    const fault::CycleFaults& faults) const {
  if (faults.cloud_capacity_factor >= 1.0 &&
      faults.link_bandwidth_factor >= 1.0)
    return base_;
  return *degraded_.at(
      {faults.cloud_capacity_factor, faults.link_bandwidth_factor});
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
  // Clean cycles share one memo; faulted cycles keep the plain call.
  CycleMemo memo(base_);
  for (int c = 0; c < cycles; ++c) {
    const fault::CycleFaults& faults = injector_.at(c);
    if (!faults.any()) {
      // Clean cycle: delegate verbatim to the base simulator — with an
      // empty plan every cycle takes this path and the RNG draw sequence
      // is exactly LargeScaleSimulator::sweep's (bit-identity contract).
      const CycleResult r = base_.simulate_cycle(clients, rng, &memo);
      double edge = r.edge_energy;
      deliver(policy_, r.surviving_clients(), true, buffer, point, edge);
      add_cycle(point, r.servers_used, r.lost_clients, edge, r.cloud_energy);
    } else {
      simulate_faulted_cycle(clients, faults, rng, buffer, point);
    }
  }
  point.bytes_pending = buffer.buffered();
  return point;
}

void ResilientFleet::simulate_faulted_cycle(
    int clients, const fault::CycleFaults& faults, util::Rng& rng,
    fault::StoreAndForwardBuffer& buffer, ResiliencePoint& point) const {
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
      // Beam-optimizer verdict (decided at construction): this fleet
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
      // whole cycle waiting for uploads that never arrive.
      const CycleResult idle = base_.simulate_ideal_cycle(active);
      servers = idle.servers_used;
      cloud = static_cast<double>(servers) *
              base_.effective_server().idle_power *
              base_.effective_server().cycle;
    }
  } else {
    // 4b. Degraded but connected: run the cycle through the
    //     reduced-capacity sibling (fewer parallel uploads per slot
    //     and/or stretched receive windows); loss C draws inside.
    const CycleResult r = degraded_sim(faults).simulate_cycle(remaining, rng);
    lost = r.lost_clients;
    edge += r.edge_energy;
    cloud = r.cloud_energy;
    servers = r.servers_used;
    // Catch-up drains only over a full-rate link.
    deliver(policy_, r.surviving_clients(),
            faults.link_bandwidth_factor >= 1.0, buffer, point, edge);
  }
  add_cycle(point, servers, lost, edge, cloud);

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
}

}  // namespace beesim::core
