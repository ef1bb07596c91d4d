#pragma once

// The scalar references for the fleet campaigns, and exact field
// comparisons against them. LargeScaleSimulator::sweep is
// FleetColumns::start -> advance -> points(): a memoised cycle loop on the
// SIMD Welford kernel. Its oracle is the loop sweep ran before that — one
// Rng::for_stream(seed, n) per point, plain simulate_cycle (no memo), one
// RunningStats::add per statistic per cycle — and every production path
// must equal it bit for bit. ResilientFleet::sweep is likewise
// ResilienceColumns::start -> advance -> points() on the same memoised
// loop; its oracle is the scalar resilient loop that ran before that —
// plain simulate_cycle / simulate_ideal_cycle, one RunningStats::add per
// statistic per cycle — rebuilt here from the fleet's public accessors
// alone. The simulator prices a cycle on the compact occupancy layout
// only; vector_cycle is the materialized per-slot pricing it is checked
// against.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocator.hpp"
#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "fault/degradation.hpp"
#include "fault/injector.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace beesim::oracle {

/// One cycle with `lost` of `clients` asleep, priced the long way:
/// allocate() materializes every server's per-slot vector, and each
/// occupied slot adds its duration and its (saturation-scaled) active
/// energy. Agrees with the simulator's compact pricing to rounding
/// (slots × energy there, repeated addition here), not bitwise.
inline core::CycleResult vector_cycle(const core::LargeScaleSimulator& sim,
                                      int clients, int lost) {
  const core::FleetParams& params = sim.params();
  const core::ServerSpec& server = sim.effective_server();
  const int surviving = clients - lost;
  const core::Allocation alloc =
      core::allocate(surviving, server, params.policy);
  core::CycleResult r;
  r.initial_clients = clients;
  r.lost_clients = lost;
  r.servers_used = alloc.servers_used();
  for (const auto& load : alloc.servers) {
    double active_time = 0.0;
    double active_energy = 0.0;
    for (int k : load.slot_clients) {
      if (k <= 0) continue;
      active_time += server.slot_duration(k);
      active_energy += server.slot_active_energy(k) *
                       params.loss.saturation_factor(k, server.max_parallel);
    }
    r.active_slots += load.active_slots();
    r.cloud_energy +=
        server.idle_power * (server.cycle - active_time) + active_energy;
  }
  r.edge_energy =
      static_cast<double>(surviving) * params.client.cycle_energy() +
      static_cast<double>(lost) * params.client.sleep_cycle_energy();
  return r;
}

/// The per-point loop every sweep oracle shares: one
/// Rng::for_stream(seed, n) per point and one RunningStats::add per
/// statistic per cycle, with `cycle(n, rng)` producing each cycle.
template <typename Cycle>
std::vector<core::SweepPoint> accumulate_sweep(const std::vector<int>& counts,
                                               std::uint64_t seed,
                                               int cycles_per_point,
                                               Cycle cycle) {
  std::vector<core::SweepPoint> out(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const int n = counts[i];
    util::Rng rng = util::Rng::for_stream(seed, static_cast<std::uint64_t>(n));
    core::SweepPoint& point = out[i];
    point.initial_clients = n;
    point.cycles = cycles_per_point;
    for (int c = 0; c < cycles_per_point; ++c) {
      const core::CycleResult r = cycle(n, rng);
      point.servers_used = std::max(point.servers_used, r.servers_used);
      point.lost_clients.add(static_cast<double>(r.lost_clients));
      point.active_slots.add(static_cast<double>(r.active_slots));
      point.edge_energy.add(r.edge_energy);
      point.cloud_energy.add(r.cloud_energy);
      point.total_energy.add(r.edge_energy + r.cloud_energy);
    }
  }
  return out;
}

inline std::vector<core::SweepPoint> reference_sweep(
    const core::LargeScaleSimulator& sim, const std::vector<int>& counts,
    std::uint64_t seed, int cycles_per_point) {
  return accumulate_sweep(counts, seed, cycles_per_point,
                          [&](int n, util::Rng& rng) {
                            return sim.simulate_cycle(n, rng);
                          });
}

/// The scalar sweep with every cycle priced by vector_cycle. The loss C
/// draw comes first, on the point's own stream, as in simulate_cycle, so
/// both see the same surviving counts.
inline std::vector<core::SweepPoint> vector_sweep(
    const core::LargeScaleSimulator& sim, const std::vector<int>& counts,
    std::uint64_t seed, int cycles_per_point) {
  return accumulate_sweep(
      counts, seed, cycles_per_point, [&](int n, util::Rng& rng) {
        return vector_cycle(sim, n,
                            sim.params().loss.draw_lost_clients(n, rng));
      });
}

/// ResilientFleet's per-point loop as a scalar reference: every cycle
/// priced from scratch, each reduced-capacity sibling rebuilt from
/// base().params() the way the constructor builds it, and the point's
/// statistics added one RunningStats::add at a time.
class ResilientReference {
 public:
  explicit ResilientReference(const core::ResilientFleet& fleet)
      : fleet_(fleet) {
    const fault::FaultInjector& injector = fleet.injector();
    for (int c = 0; c < injector.horizon(); ++c) {
      const fault::CycleFaults& f = injector.at(c);
      if (f.link_outage || f.cloud_outage) continue;
      if (f.cloud_capacity_factor >= 1.0 && f.link_bandwidth_factor >= 1.0)
        continue;
      const auto key =
          std::make_pair(f.cloud_capacity_factor, f.link_bandwidth_factor);
      if (siblings_.count(key) != 0) continue;
      core::FleetParams p = fleet.base().params();
      p.server.max_parallel = std::max(
          1, static_cast<int>(std::floor(
                 static_cast<double>(p.server.max_parallel) *
                 f.cloud_capacity_factor)));
      p.server.receive_time /= f.link_bandwidth_factor;
      siblings_.emplace(key, core::LargeScaleSimulator(std::move(p)));
    }
  }

  core::ResiliencePoint run_point(int clients, int cycles,
                                  util::Rng& rng) const {
    core::ResiliencePoint point;
    point.initial_clients = clients;
    point.cycles = cycles;
    fault::StoreAndForwardBuffer buffer(
        fleet_.policy().buffer_bytes_per_client *
        static_cast<double>(clients));
    for (int c = 0; c < cycles; ++c) {
      const fault::CycleFaults& faults = fleet_.injector().at(c);
      if (!faults.any()) {
        const core::CycleResult r = fleet_.base().simulate_cycle(clients, rng);
        double edge = r.edge_energy;
        deliver(r.surviving_clients(), true, buffer, point, edge);
        add_cycle(point, r.servers_used, r.lost_clients, edge,
                  r.cloud_energy);
      } else {
        faulted_cycle(clients, faults, rng, buffer, point);
      }
    }
    point.bytes_pending = buffer.buffered();
    return point;
  }

 private:
  void deliver(int active, bool catch_up,
               fault::StoreAndForwardBuffer& buffer,
               core::ResiliencePoint& point, double& edge) const {
    const core::ResiliencePolicy& policy = fleet_.policy();
    const double upload = policy.upload_bytes_per_client;
    const double produced = static_cast<double>(active) * upload;
    point.bytes_generated += produced;
    point.bytes_served += produced;
    if (!catch_up || !policy.store_and_forward || buffer.buffered() <= 0.0)
      return;
    const double budget =
        policy.catchup_factor * upload * static_cast<double>(active);
    const double drained = buffer.drain(budget);
    point.bytes_recovered += drained;
    edge += drained / upload * policy.upload_energy_per_payload;
  }

  static void add_cycle(core::ResiliencePoint& point, int servers, int lost,
                        double edge, double cloud) {
    point.servers_used = std::max(point.servers_used, servers);
    point.lost_clients.add(static_cast<double>(lost));
    point.edge_energy.add(edge);
    point.cloud_energy.add(cloud);
    point.total_energy.add(edge + cloud);
  }

  void faulted_cycle(int clients, const fault::CycleFaults& faults,
                     util::Rng& rng, fault::StoreAndForwardBuffer& buffer,
                     core::ResiliencePoint& point) const {
    const core::LargeScaleSimulator& base = fleet_.base();
    const core::ResiliencePolicy& policy = fleet_.policy();
    const core::ClientSpec& client = base.params().client;
    const double upload = policy.upload_bytes_per_client;
    ++point.degraded_cycles;

    int remaining = clients;
    int shed = 0;
    int browned = 0;
    if (faults.battery_factor < 1.0) {
      const int affected = std::clamp(
          static_cast<int>(std::lround((1.0 - faults.battery_factor) *
                                       static_cast<double>(remaining))),
          0, remaining);
      (policy.load_shedding ? shed : browned) = affected;
      remaining -= affected;
    }
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

    double edge = static_cast<double>(shed) * client.sleep_cycle_energy() +
                  static_cast<double>(browned + mute) * client.cycle_energy();
    double cloud = 0.0;
    int servers = 0;
    int lost = 0;
    if (faults.link_outage || faults.cloud_outage) {
      lost = base.params().loss.draw_lost_clients(remaining, rng);
      int active = remaining - lost;
      edge += static_cast<double>(lost) * client.sleep_cycle_energy();
      const double shed_fraction = fleet_.outage_shed_fraction();
      if (shed_fraction > 0.0) {
        const int opt_shed = std::clamp(
            static_cast<int>(std::lround(shed_fraction *
                                         static_cast<double>(active))),
            0, active);
        edge += static_cast<double>(opt_shed) * client.sleep_cycle_energy();
        point.shed_client_cycles += opt_shed;
        point.bytes_lost += static_cast<double>(opt_shed) * upload;
        active -= opt_shed;
      }
      const double offered = static_cast<double>(active) * upload;
      point.bytes_generated += offered;
      if (policy.edge_fallback) {
        edge += static_cast<double>(active) *
                fleet_.edge_fallback_cycle_energy();
        ++point.edge_fallback_cycles;
        point.fallback_client_cycles += active;
      } else {
        edge += static_cast<double>(active) *
                std::max(0.0, client.cycle_energy() -
                                  policy.upload_energy_per_payload);
      }
      if (policy.store_and_forward) {
        const double accepted = buffer.offer(offered);
        point.bytes_dropped += offered - accepted;
      } else {
        point.bytes_dropped += offered;
      }
      if (!faults.cloud_outage && active > 0) {
        servers = base.simulate_ideal_cycle(active).servers_used;
        cloud = static_cast<double>(servers) *
                base.effective_server().idle_power *
                base.effective_server().cycle;
      }
    } else {
      const bool reduced = faults.cloud_capacity_factor < 1.0 ||
                           faults.link_bandwidth_factor < 1.0;
      const core::LargeScaleSimulator& sim =
          reduced ? siblings_.at({faults.cloud_capacity_factor,
                                  faults.link_bandwidth_factor})
                  : base;
      const core::CycleResult r = sim.simulate_cycle(remaining, rng);
      lost = r.lost_clients;
      edge += r.edge_energy;
      cloud = r.cloud_energy;
      servers = r.servers_used;
      deliver(r.surviving_clients(), faults.link_bandwidth_factor >= 1.0,
              buffer, point, edge);
    }
    add_cycle(point, servers, lost, edge, cloud);
  }

  const core::ResilientFleet& fleet_;
  std::map<std::pair<double, double>, core::LargeScaleSimulator> siblings_;
};

inline std::vector<core::ResiliencePoint> reference_resilient_sweep(
    const core::ResilientFleet& fleet, const std::vector<int>& counts,
    std::uint64_t seed, int cycles_per_point) {
  const ResilientReference reference(fleet);
  std::vector<core::ResiliencePoint> out;
  for (int n : counts) {
    util::Rng rng = util::Rng::for_stream(seed, static_cast<std::uint64_t>(n));
    out.push_back(reference.run_point(n, cycles_per_point, rng));
  }
  return out;
}

inline void expect_same_raw(const util::RunningStats& a,
                            const util::RunningStats& b) {
  const auto ra = a.raw();
  const auto rb = b.raw();
  EXPECT_EQ(ra.n, rb.n);
  EXPECT_EQ(ra.mean, rb.mean);
  EXPECT_EQ(ra.m2, rb.m2);
  EXPECT_EQ(ra.sum, rb.sum);
  EXPECT_EQ(ra.min, rb.min);
  EXPECT_EQ(ra.max, rb.max);
}

inline void expect_same_point(const core::SweepPoint& a,
                              const core::SweepPoint& b) {
  EXPECT_EQ(a.initial_clients, b.initial_clients);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.servers_used, b.servers_used);
  expect_same_raw(a.lost_clients, b.lost_clients);
  expect_same_raw(a.active_slots, b.active_slots);
  expect_same_raw(a.edge_energy, b.edge_energy);
  expect_same_raw(a.cloud_energy, b.cloud_energy);
  expect_same_raw(a.total_energy, b.total_energy);
}

inline void expect_same_point(const core::ResiliencePoint& a,
                              const core::ResiliencePoint& b) {
  EXPECT_EQ(a.initial_clients, b.initial_clients);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.servers_used, b.servers_used);
  EXPECT_EQ(a.degraded_cycles, b.degraded_cycles);
  EXPECT_EQ(a.edge_fallback_cycles, b.edge_fallback_cycles);
  EXPECT_EQ(a.fallback_client_cycles, b.fallback_client_cycles);
  EXPECT_EQ(a.shed_client_cycles, b.shed_client_cycles);
  EXPECT_EQ(a.browned_client_cycles, b.browned_client_cycles);
  EXPECT_EQ(a.sensor_mute_client_cycles, b.sensor_mute_client_cycles);
  expect_same_raw(a.lost_clients, b.lost_clients);
  expect_same_raw(a.edge_energy, b.edge_energy);
  expect_same_raw(a.cloud_energy, b.cloud_energy);
  expect_same_raw(a.total_energy, b.total_energy);
  EXPECT_EQ(a.bytes_generated, b.bytes_generated);
  EXPECT_EQ(a.bytes_served, b.bytes_served);
  EXPECT_EQ(a.bytes_recovered, b.bytes_recovered);
  EXPECT_EQ(a.bytes_dropped, b.bytes_dropped);
  EXPECT_EQ(a.bytes_pending, b.bytes_pending);
  EXPECT_EQ(a.bytes_lost, b.bytes_lost);
}

/// A resilient point of an empty fault plan against the oracle's point:
/// every cycle is clean, so the shared fields must match exactly.
inline void expect_same_point(const core::ResiliencePoint& a,
                              const core::SweepPoint& b) {
  EXPECT_EQ(a.initial_clients, b.initial_clients);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.servers_used, b.servers_used);
  EXPECT_EQ(a.degraded_cycles, 0);
  expect_same_raw(a.lost_clients, b.lost_clients);
  expect_same_raw(a.edge_energy, b.edge_energy);
  expect_same_raw(a.cloud_energy, b.cloud_energy);
  expect_same_raw(a.total_energy, b.total_energy);
}

}  // namespace beesim::oracle
