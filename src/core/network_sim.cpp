#include "core/network_sim.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/catalog.hpp"

namespace beesim::core {

FleetParams FleetParams::paper_default(ServiceModel service,
                                       int max_parallel,
                                       util::Seconds cycle) {
  FleetParams p;
  p.client = ClientSpec::smart_beehive(Placement::kEdgeCloud, service, cycle);
  p.server = ServerSpec::cloud_server(service, max_parallel, cycle);
  return p;
}

double CycleResult::edge_per_client() const noexcept {
  return initial_clients > 0
             ? edge_energy / static_cast<double>(initial_clients)
             : 0.0;
}

double CycleResult::cloud_per_client() const noexcept {
  return initial_clients > 0
             ? cloud_energy / static_cast<double>(initial_clients)
             : 0.0;
}

double CycleResult::total_per_client() const noexcept {
  return edge_per_client() + cloud_per_client();
}

double SweepPoint::mean_surviving() const noexcept {
  return static_cast<double>(initial_clients) - lost_clients.mean();
}

int SweepPoint::lost_clients_display() const noexcept {
  return static_cast<int>(std::lround(lost_clients.mean()));
}

double SweepPoint::edge_per_client() const noexcept {
  return initial_clients > 0
             ? edge_energy.mean() / static_cast<double>(initial_clients)
             : 0.0;
}

double SweepPoint::cloud_per_client() const noexcept {
  return initial_clients > 0
             ? cloud_energy.mean() / static_cast<double>(initial_clients)
             : 0.0;
}

double SweepPoint::total_per_client() const noexcept {
  return initial_clients > 0
             ? total_energy.mean() / static_cast<double>(initial_clients)
             : 0.0;
}

double SweepPoint::total_per_client_ci95() const noexcept {
  if (initial_clients <= 0 || total_energy.count() < 2) return 0.0;
  return 1.96 * total_energy.sample_stddev() /
         std::sqrt(static_cast<double>(total_energy.count())) /
         static_cast<double>(initial_clients);
}

namespace {

[[noreturn]] void reject(const char* why) {
  throw std::invalid_argument(std::string("FleetParams: ") + why);
}

bool finite_nonnegative(double v) noexcept {
  return std::isfinite(v) && v >= 0.0;
}

/// params.server with loss model B's per-client transfer stretch folded
/// in: the server every cycle is priced against.
ServerSpec stretched_server(const FleetParams& params) {
  ServerSpec server = params.server;
  if (params.loss.transfer_stretch)
    server.extra_transfer_per_client = params.loss.extra_transfer_per_client;
  return server;
}

}  // namespace

void validate(const FleetParams& params) {
  const ClientSpec& client = params.client;
  const ServerSpec& server = params.server;
  const LossConfig& loss = params.loss;
  if (!finite_nonnegative(client.sleep_power))
    reject("client.sleep_power must be finite and >= 0");
  if (!std::isfinite(client.period) || client.period <= 0.0)
    reject("client.period must be finite and > 0");
  for (const auto& task : client.actions)
    if (!finite_nonnegative(task.duration) ||
        !finite_nonnegative(task.power) ||
        !finite_nonnegative(task.duration_stddev))
      reject("client.actions durations and powers must be finite and >= 0");
  if (client.active_time() > client.period)
    reject("client.actions take longer than client.period");
  if (server.cycle != client.period)
    reject("server.cycle must equal client.period");
  if (server.max_parallel < 1) reject("server.max_parallel must be >= 1");
  if (!finite_nonnegative(server.idle_power) ||
      !finite_nonnegative(server.receive_power) ||
      !finite_nonnegative(server.process_power))
    reject("server powers must be finite and >= 0");
  if (!finite_nonnegative(server.receive_time) ||
      !finite_nonnegative(server.process_time) ||
      !finite_nonnegative(server.extra_transfer_per_client))
    reject("server durations must be finite and >= 0");
  if (params.policy != FillPolicy::kFillFirst &&
      params.policy != FillPolicy::kBalanced &&
      params.policy != FillPolicy::kRoundRobin)
    reject("policy is not a FillPolicy");
  if (loss.saturation_slack < 0) reject("loss.saturation_slack must be >= 0");
  if (!finite_nonnegative(loss.saturation_penalty) ||
      !finite_nonnegative(loss.extra_transfer_per_client) ||
      !finite_nonnegative(loss.dropout_mean_fraction) ||
      !finite_nonnegative(loss.dropout_stddev))
    reject("loss parameters must be finite and >= 0");
  // The full-slot geometry of the stretched server, as
  // ServerSpec::slots_per_cycle computes it — without its obs counters,
  // since admission calls this per request.
  const double slot = stretched_server(params).planning_slot_duration();
  if (slot <= 0.0) reject("a full slot must take time");
  const double slots = server.cycle / slot;
  if (slots < 1.0) reject("a full slot does not fit in server.cycle");
  if (std::floor(slots) * static_cast<double>(server.max_parallel) >
      static_cast<double>(std::numeric_limits<int>::max()))
    reject("server capacity per cycle overflows int");
}

LargeScaleSimulator::LargeScaleSimulator(FleetParams params)
    : params_(std::move(params)), server_(stretched_server(params_)) {
  validate(params_);
}

util::Joules LargeScaleSimulator::server_energy(const CompactLayout& layout,
                                                int cls) const {
  util::Seconds active_time = 0.0;
  util::Joules active_energy = 0.0;
  for (int b = 0; b < layout.band_count[cls]; ++b) {
    const int k = layout.band_clients[cls][b];
    const int band_slots = layout.band_slots[cls][b];
    if (k <= 0 || band_slots <= 0) continue;
    const auto slots = static_cast<double>(band_slots);
    active_time += slots * server_.slot_duration(k);
    active_energy += slots * (server_.slot_active_energy(k) *
                              params_.loss.saturation_factor(
                                  k, server_.max_parallel));
    if (obs::enabled() && params_.loss.saturates(k, server_.max_parallel)) {
      static auto& saturated =
          obs::registry().counter(obs::metric::kLossSaturatedSlots);
      saturated.inc(static_cast<std::uint64_t>(band_slots) *
                    static_cast<std::uint64_t>(layout.servers[cls]));
    }
  }
  if (active_time > server_.cycle)
    throw std::logic_error(
        "LargeScaleSimulator: active slots exceed the cycle");
  return server_.idle_power * (server_.cycle - active_time) + active_energy;
}

CycleMemo* LargeScaleSimulator::usable(CycleMemo* memo) const {
  if (memo != nullptr && memo->sim_ != this)
    throw std::invalid_argument(
        "simulate_cycle: memo bound to another simulator");
  return obs::enabled() ? nullptr : memo;
}

CycleResult LargeScaleSimulator::simulate_cycle(int clients, util::Rng& rng,
                                                CycleMemo* memo) const {
  if (clients < 0)
    throw std::invalid_argument("simulate_cycle: negative clients");
  CycleMemo* const table = usable(memo);
  const int lost = params_.loss.draw_lost_clients(clients, rng);
  return price_cycle(clients, lost, table);
}

CycleResult LargeScaleSimulator::simulate_ideal_cycle(int clients,
                                                      CycleMemo* memo) const {
  if (clients < 0)
    throw std::invalid_argument("simulate_cycle: negative clients");
  return price_cycle(clients, 0, usable(memo));
}

CycleResult LargeScaleSimulator::price_cycle(int clients, int lost,
                                             CycleMemo* memo) const {
  const int surviving = clients - lost;
  // Without a memo the cycle prices through a one-entry table that
  // always misses.
  CycleMemo::Entry single;
  CycleMemo::Entry& entry =
      memo != nullptr ? memo->entries_[surviving & (CycleMemo::kSlots - 1)]
                      : single;
  if (entry.surviving != surviving) {
    entry = {surviving, 0, 0, 0.0,
             static_cast<double>(surviving) * params_.client.cycle_energy()};
    // Stack-resident columnar layout: the whole per-cycle allocation is a
    // few fixed arrays, no heap traffic (the SoA fast path that
    // bench/checkpoint_bench measures against its heap-allocating
    // replica of the old per-cycle loop).
    CompactLayout layout;
    allocate_compact_into(surviving, server_, params_.policy, layout);
    entry.servers_used = static_cast<int>(layout.servers_used());
    entry.active_slots = static_cast<int>(layout.active_slots());
    for (int c = 0; c < layout.class_count; ++c)
      entry.cloud_energy +=
          static_cast<double>(layout.servers[c]) * server_energy(layout, c);
  }
  CycleResult result;
  result.initial_clients = clients;
  result.lost_clients = lost;
  result.servers_used = entry.servers_used;
  result.active_slots = entry.active_slots;
  result.edge_energy =
      entry.survivor_edge +
      static_cast<double>(lost) * params_.client.sleep_cycle_energy();
  result.cloud_energy = entry.cloud_energy;

  if (obs::enabled()) {
    static auto& cycles = obs::registry().counter(obs::metric::kFleetCycles);
    static auto& hives =
        obs::registry().counter(obs::metric::kFleetHivesSimulated);
    static auto& edge_requests =
        obs::registry().counter(obs::metric::kFleetRequestsEdge);
    static auto& cloud_requests =
        obs::registry().counter(obs::metric::kFleetRequestsCloud);
    static auto& dropped =
        obs::registry().counter(obs::metric::kFleetRequestsDropped);
    static auto& max_servers =
        obs::registry().gauge(obs::metric::kFleetMaxServersUsed);
    cycles.inc();
    hives.inc(static_cast<std::uint64_t>(clients));
    // Every surviving client both runs its edge routine and uploads to a
    // cloud slot (the Section VI clients are edge+cloud by construction);
    // dropped requests are the loss-C sleepers.
    edge_requests.inc(static_cast<std::uint64_t>(surviving));
    cloud_requests.inc(static_cast<std::uint64_t>(surviving));
    dropped.inc(static_cast<std::uint64_t>(lost));
    max_servers.update_max(static_cast<double>(result.servers_used));
  }
  return result;
}

std::vector<int> client_range(int lo, int hi, int step) {
  if (lo < 0 || hi < lo || step <= 0)
    throw std::invalid_argument("client_range: bad range");
  std::vector<int> out;
  for (int n = lo; n <= hi; n += step) out.push_back(n);
  return out;
}

}  // namespace beesim::core
