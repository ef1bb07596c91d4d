#include "core/network_sim.hpp"

#include <cmath>
#include <stdexcept>

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

LargeScaleSimulator::LargeScaleSimulator(FleetParams params)
    : params_(std::move(params)), server_(params_.server) {
  if (params_.loss.transfer_stretch)
    server_.extra_transfer_per_client =
        params_.loss.extra_transfer_per_client;
  if (params_.client.period != server_.cycle)
    throw std::invalid_argument(
        "LargeScaleSimulator: client period and server cycle differ");
  // Validate the geometry once (throws if a slot cannot fit).
  (void)server_.slots_per_cycle();
}

util::Joules LargeScaleSimulator::server_energy(
    const Allocation::ServerLoad& load) const {
  util::Seconds active_time = 0.0;
  util::Joules active_energy = 0.0;
  for (int k : load.slot_clients) {
    if (k <= 0) continue;
    active_time += server_.slot_duration(k);
    active_energy += server_.slot_active_energy(k) *
                     params_.loss.saturation_factor(k,
                                                    server_.max_parallel);
    if (obs::enabled() && params_.loss.saturates(k, server_.max_parallel)) {
      static auto& saturated =
          obs::registry().counter(obs::metric::kLossSaturatedSlots);
      saturated.inc();
    }
  }
  if (active_time > server_.cycle)
    throw std::logic_error(
        "LargeScaleSimulator: active slots exceed the cycle");
  return server_.idle_power * (server_.cycle - active_time) + active_energy;
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

CycleResult LargeScaleSimulator::simulate_cycle(int clients, util::Rng& rng,
                                                CycleMemo* memo) const {
  if (clients < 0)
    throw std::invalid_argument("simulate_cycle: negative clients");
  if (memo != nullptr && memo->sim_ != this)
    throw std::invalid_argument(
        "simulate_cycle: memo bound to another simulator");
  const int lost = params_.loss.draw_lost_clients(clients, rng);
  return price_cycle(clients, lost, obs::enabled() ? nullptr : memo);
}

CycleResult LargeScaleSimulator::simulate_ideal_cycle(int clients) const {
  if (clients < 0)
    throw std::invalid_argument("simulate_cycle: negative clients");
  return price_cycle(clients, 0, nullptr);
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
    if (params_.compact_allocation) {
      // Stack-resident columnar layout: the whole per-cycle allocation is
      // a few fixed arrays, no heap traffic (the SoA fast path that
      // bench/checkpoint_bench measures against the old vector form).
      CompactLayout layout;
      allocate_compact_into(surviving, server_, params_.policy, layout);
      entry.servers_used = static_cast<int>(layout.servers_used());
      entry.active_slots = static_cast<int>(layout.active_slots());
      for (int c = 0; c < layout.class_count; ++c)
        entry.cloud_energy +=
            static_cast<double>(layout.servers[c]) * server_energy(layout, c);
    } else {
      const Allocation alloc = allocate(surviving, server_, params_.policy);
      entry.servers_used = alloc.servers_used();
      for (const auto& load : alloc.servers) {
        entry.active_slots += load.active_slots();
        entry.cloud_energy += server_energy(load);
      }
    }
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
