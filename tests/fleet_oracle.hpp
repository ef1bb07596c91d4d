#pragma once

// The scalar references for the fleet campaigns, and exact field
// comparisons against them. LargeScaleSimulator::sweep is
// FleetColumns::start -> advance -> points(): a memoised cycle loop on the
// SIMD Welford kernel. Its oracle is the loop sweep ran before that — one
// Rng::for_stream(seed, n) per point, plain simulate_cycle (no memo), one
// RunningStats::add per statistic per cycle — and every production path
// must equal it bit for bit. ResilientFleet::sweep is likewise
// ResilienceColumns::start -> advance -> points(); its oracle runs each
// point's run_point serially on the same streams.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace beesim::oracle {

inline std::vector<core::SweepPoint> reference_sweep(
    const core::LargeScaleSimulator& sim, const std::vector<int>& counts,
    std::uint64_t seed, int cycles_per_point) {
  std::vector<core::SweepPoint> out(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const int n = counts[i];
    util::Rng rng = util::Rng::for_stream(seed, static_cast<std::uint64_t>(n));
    core::SweepPoint& point = out[i];
    point.initial_clients = n;
    point.cycles = cycles_per_point;
    for (int c = 0; c < cycles_per_point; ++c) {
      const core::CycleResult r = sim.simulate_cycle(n, rng);
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

inline std::vector<core::ResiliencePoint> reference_resilient_sweep(
    const core::ResilientFleet& fleet, const std::vector<int>& counts,
    std::uint64_t seed, int cycles_per_point) {
  std::vector<core::ResiliencePoint> out;
  for (int n : counts) {
    util::Rng rng = util::Rng::for_stream(seed, static_cast<std::uint64_t>(n));
    out.push_back(fleet.run_point(n, cycles_per_point, rng));
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
