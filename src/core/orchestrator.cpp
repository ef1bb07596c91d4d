#include "core/orchestrator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>

#include "core/server.hpp"
#include "device/calibration.hpp"
#include "obs/catalog.hpp"

namespace beesim::core {

namespace cal = device::cal;

ServiceOrchestrator::ServiceOrchestrator(const OrchestratorOptions& options)
    : options_(options) {
  // <= comparisons alone let NaN slip through (every comparison with NaN
  // is false), so finiteness is checked explicitly.
  if (options_.clients < 1 || options_.max_parallel < 1 ||
      !std::isfinite(options_.cycle) || options_.cycle <= 0.0 ||
      !std::isfinite(options_.slot_uplink_bytes_per_s) ||
      options_.slot_uplink_bytes_per_s <= 0.0 ||
      !std::isfinite(options_.edge_joule_weight) ||
      options_.edge_joule_weight <= 0.0)
    throw std::invalid_argument("ServiceOrchestrator: invalid options");
}

OrchestrationCosts ServiceOrchestrator::evaluate(
    const std::vector<ServicePlan>& plans) const {
  {
    std::set<std::string> names;
    for (const auto& plan : plans)
      if (!names.insert(plan.service.name).second)
        throw std::invalid_argument(
            "ServiceOrchestrator: duplicate service " + plan.service.name);
  }

  static auto& evaluations =
      obs::registry().counter(obs::metric::kOrchestratorEvaluations);
  evaluations.inc();

  OrchestrationCosts costs;

  // ---- Edge side --------------------------------------------------------
  // Base routine: wake & collect + shutdown, every cycle.
  util::Seconds edge_time_worst =
      cal::kWakeCollectTime + cal::kShutdownTime;
  util::Seconds edge_time_avg = edge_time_worst;
  util::Joules edge_energy_avg =
      cal::kWakeCollectEnergy + cal::kShutdownEnergy;

  bool any_edge = false;
  bool any_cloud = false;
  double upload_bytes_avg = 0.0;
  double upload_bytes_worst = 0.0;
  util::Seconds cloud_process_avg = 0.0;
  util::Seconds cloud_process_worst = 0.0;
  util::Joules cloud_process_energy_avg = 0.0;

  for (const auto& plan : plans) {
    const auto& svc = plan.service;
    if (svc.period_cycles < 1)
      throw std::invalid_argument("ServiceOrchestrator: bad period for " +
                                  svc.name);
    const double period = static_cast<double>(svc.period_cycles);
    if (plan.placement == Placement::kEdgeOnly) {
      any_edge = true;
      edge_time_worst += svc.edge_time;
      edge_time_avg += svc.edge_time / period;
      edge_energy_avg += svc.edge_energy() / period;
    } else {
      any_cloud = true;
      upload_bytes_avg += svc.upload_bytes / period;
      upload_bytes_worst += svc.upload_bytes;
      cloud_process_avg += svc.cloud_time / period;
      cloud_process_worst += svc.cloud_time;
      cloud_process_energy_avg += svc.cloud_energy() / period;
    }
  }

  if (any_edge) {
    // One results upload per cycle covers every edge verdict.
    edge_time_worst += cal::kSendResultsTime;
    edge_time_avg += cal::kSendResultsTime;
    edge_energy_avg += cal::kSendResultsEnergy;
  }
  const util::Seconds upload_time_worst =
      upload_bytes_worst / options_.slot_uplink_bytes_per_s;
  const util::Seconds upload_time_avg =
      upload_bytes_avg / options_.slot_uplink_bytes_per_s;
  if (any_cloud) {
    edge_time_worst += upload_time_worst;
    edge_time_avg += upload_time_avg;
    edge_energy_avg += upload_time_avg * cal::kSendAudioPower;
  }

  static auto& infeasible =
      obs::registry().counter(obs::metric::kOrchestratorInfeasible);

  costs.edge_active_time = edge_time_worst;
  if (edge_time_worst >= options_.cycle) {
    costs.feasible = false;
    infeasible.inc();
    return costs;
  }
  // Sleep billed on the average cycle.
  edge_energy_avg +=
      cal::kEdgeSleepPower * (options_.cycle - edge_time_avg);
  costs.edge_per_cycle = edge_energy_avg;

  // ---- Cloud side -------------------------------------------------------
  if (!any_cloud) {
    costs.cloud_per_client = 0.0;
    costs.servers_used = 0;
    return costs;
  }

  // Capacity planned on the worst cycle; energy billed on the average.
  ServerSpec worst;
  worst.idle_power = cal::kCloudIdlePower;
  worst.receive_time = upload_time_worst;
  worst.receive_power = cal::kCloudReceivePower;
  worst.process_time = cloud_process_worst;
  worst.process_power = 1.0;  // unused for planning
  worst.max_parallel = options_.max_parallel;
  worst.cycle = options_.cycle;
  if (worst.planning_slot_duration() > options_.cycle) {
    costs.feasible = false;
    infeasible.inc();
    return costs;
  }

  CompactLayout layout;
  allocate_compact_into(options_.clients, worst, options_.policy, layout);
  costs.servers_used = static_cast<int>(layout.servers_used());

  // Average-cycle slot energetics.
  const util::Joules slot_active_avg =
      cal::kCloudReceivePower * upload_time_avg + cloud_process_energy_avg;
  const util::Seconds slot_time_avg = upload_time_avg + cloud_process_avg;
  // Summed server by server: each class's per-server term is added
  // `servers[c]` times, in class order, which is server order. That is
  // the same sequence of additions as pricing every server of the
  // per-slot vector form, so the total is bit-identical to it.
  util::Joules cloud_total = 0.0;
  for (int c = 0; c < layout.class_count; ++c) {
    int active = 0;
    for (int b = 0; b < layout.band_count[c]; ++b)
      if (layout.band_clients[c][b] > 0) active += layout.band_slots[c][b];
    const util::Seconds busy = slot_time_avg * active;
    const util::Joules per_server =
        cal::kCloudIdlePower * (options_.cycle - busy) +
        slot_active_avg * static_cast<double>(active);
    for (std::int64_t s = 0; s < layout.servers[c]; ++s)
      cloud_total += per_server;
  }
  costs.cloud_per_client =
      cloud_total / static_cast<double>(options_.clients);
  return costs;
}

ServiceOrchestrator::Result ServiceOrchestrator::optimize(
    const std::vector<hive::ServiceSpec>& services) const {
  if (services.empty())
    throw std::invalid_argument("ServiceOrchestrator: empty catalog");
  if (services.size() > 20)
    throw std::invalid_argument("ServiceOrchestrator: catalog too large");

  std::optional<Result> best;
  const std::size_t assignments = std::size_t{1} << services.size();
  for (std::size_t mask = 0; mask < assignments; ++mask) {
    std::vector<ServicePlan> plans;
    plans.reserve(services.size());
    for (std::size_t i = 0; i < services.size(); ++i)
      plans.push_back({services[i], (mask >> i) & 1
                                        ? Placement::kEdgeCloud
                                        : Placement::kEdgeOnly});
    const OrchestrationCosts costs = evaluate(plans);
    if (!costs.feasible) continue;
    const double objective = options_.edge_joule_weight *
                                 costs.edge_per_cycle +
                             costs.cloud_per_client;
    if (!best.has_value() || objective < best->objective)
      best = Result{std::move(plans), costs, objective};
  }
  if (!best.has_value())
    throw std::runtime_error(
        "ServiceOrchestrator: no feasible placement (cycle too short)");
  if (obs::enabled()) {
    // The winning assignment's decisions are the interesting ones; the
    // 2^k candidates scanned on the way are covered by `evaluations`.
    static auto& edge =
        obs::registry().counter(obs::metric::kOrchestratorPlacementsEdge);
    static auto& cloud =
        obs::registry().counter(obs::metric::kOrchestratorPlacementsCloud);
    for (const auto& plan : best->plans)
      (plan.placement == Placement::kEdgeOnly ? edge : cloud).inc();
  }
  return *best;
}

std::optional<int> ServiceOrchestrator::cloud_breakeven(
    const hive::ServiceSpec& service, int lo, int hi) const {
  if (lo < 1 || hi < lo)
    throw std::invalid_argument("cloud_breakeven: bad range");
  OrchestratorOptions options = options_;
  options.edge_joule_weight = 1.0;
  for (int n = lo; n <= hi; ++n) {
    options.clients = n;
    ServiceOrchestrator sized(options);
    const auto edge =
        sized.evaluate({{service, Placement::kEdgeOnly}});
    const auto cloud =
        sized.evaluate({{service, Placement::kEdgeCloud}});
    if (!cloud.feasible) return std::nullopt;
    // A service the edge cannot host at all breaks even immediately.
    if (!edge.feasible) return n;
    if (cloud.total_per_client() < edge.total_per_client()) return n;
  }
  return std::nullopt;
}

}  // namespace beesim::core
