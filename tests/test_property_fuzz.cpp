#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/network_sim.hpp"
#include "core/scenario.hpp"
#include "des_oracle.hpp"
#include "fleet_oracle.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

// Randomized property tests: each generates many random scenarios and
// checks invariants that must hold for every one of them. Seeds are fixed
// so failures reproduce.

namespace core = beesim::core;
namespace sim = beesim::sim;

// ---------------------------------------------------------- Engine vs ref

/// Reference semantics for the event engine: a sorted (time, seq) list.
TEST(FuzzEngine, MatchesReferenceOrderingUnderRandomOps) {
  beesim::util::Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    sim::Engine engine;
    struct Ref {
      double at;
      std::uint64_t seq;
      int tag;
      bool cancelled = false;
    };
    std::vector<Ref> reference;
    std::map<int, sim::EventId> ids;
    std::vector<int> executed;

    const int ops = 40;
    std::uint64_t seq = 0;
    for (int tag = 0; tag < ops; ++tag) {
      if (!reference.empty() && rng.chance(0.25)) {
        // Cancel a random earlier event (may already be cancelled).
        const auto victim = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(reference.size()) - 1));
        if (!reference[victim].cancelled) {
          reference[victim].cancelled = true;
          EXPECT_TRUE(engine.cancel(ids[reference[victim].tag]));
        }
      }
      const double at = rng.uniform(0.0, 100.0);
      reference.push_back({at, seq++, tag});
      ids[tag] = engine.schedule_at(
          at, [tag, &executed](sim::Engine&) { executed.push_back(tag); });
    }
    engine.run();

    std::vector<Ref> expected;
    for (const auto& r : reference)
      if (!r.cancelled) expected.push_back(r);
    std::sort(expected.begin(), expected.end(), [](const Ref& a,
                                                   const Ref& b) {
      return a.at != b.at ? a.at < b.at : a.seq < b.seq;
    });
    ASSERT_EQ(executed.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(executed[i], expected[i].tag)
          << "trial " << trial << " position " << i;
  }
}

TEST(FuzzEngine, RunUntilNeverExecutesBeyondHorizon) {
  beesim::util::Rng rng(102);
  for (int trial = 0; trial < 30; ++trial) {
    sim::Engine engine;
    std::vector<double> times;
    for (int i = 0; i < 30; ++i)
      engine.schedule_at(rng.uniform(0.0, 50.0), [&times](sim::Engine& e) {
        times.push_back(e.now());
      });
    const double horizon = rng.uniform(0.0, 50.0);
    engine.run_until(horizon);
    for (double t : times) EXPECT_LE(t, horizon);
    EXPECT_DOUBLE_EQ(engine.now(), horizon);
    engine.run();  // the rest still executes afterwards, in order
    for (std::size_t i = 1; i < times.size(); ++i)
      EXPECT_LE(times[i - 1], times[i] + 1e-12);
  }
}

// ------------------------------------------------------------ Allocator

TEST(FuzzAllocator, InvariantsHoldForRandomSpecs) {
  beesim::util::Rng rng(103);
  const core::FillPolicy policies[] = {core::FillPolicy::kFillFirst,
                                       core::FillPolicy::kBalanced,
                                       core::FillPolicy::kRoundRobin};
  for (int trial = 0; trial < 120; ++trial) {
    core::ServerSpec spec =
        core::ServerSpec::cloud_server(core::ServiceModel::kCnn, 10);
    spec.receive_time = rng.uniform(2.0, 60.0);
    spec.process_time = rng.uniform(0.05, 10.0);
    spec.max_parallel = static_cast<int>(rng.uniform_int(1, 60));
    if (rng.chance(0.3))
      spec.extra_transfer_per_client = rng.uniform(0.0, 1.0);
    // Keep the slot inside the cycle.
    if (spec.planning_slot_duration() > spec.cycle) continue;

    const int clients = static_cast<int>(rng.uniform_int(0, 2000));
    const auto policy = policies[rng.uniform_int(0, 2)];
    core::CompactLayout layout;
    core::allocate_compact_into(clients, spec, policy, layout);
    const auto alloc = beesim::oracle::expand(layout);

    EXPECT_EQ(layout.total_clients(), clients);
    const int capacity = spec.capacity();
    const int expected_servers =
        clients == 0 ? 0 : (clients + capacity - 1) / capacity;
    EXPECT_EQ(layout.servers_used(), expected_servers)
        << "trial " << trial << " policy " << core::to_string(policy);
    for (const auto& server : alloc.servers) {
      EXPECT_GT(server.total(), 0);
      EXPECT_LE(server.total(), capacity);
      for (int k : server.slot_clients) {
        EXPECT_GE(k, 0);
        EXPECT_LE(k, spec.max_parallel);
      }
    }
  }
}

TEST(FuzzAllocator, CompactExpandsToVectorForRandomSpecs) {
  // Property form of the compact-allocator equivalence: for random
  // geometries, fleet sizes, and policies, the O(1) histogram form must
  // expand to exactly the vectors oracle::allocate builds.
  beesim::util::Rng rng(107);
  const core::FillPolicy policies[] = {core::FillPolicy::kFillFirst,
                                       core::FillPolicy::kBalanced,
                                       core::FillPolicy::kRoundRobin};
  int checked = 0;
  for (int trial = 0; trial < 150; ++trial) {
    core::ServerSpec spec =
        core::ServerSpec::cloud_server(core::ServiceModel::kCnn, 10);
    spec.receive_time = rng.uniform(2.0, 60.0);
    spec.process_time = rng.uniform(0.05, 10.0);
    spec.max_parallel = static_cast<int>(rng.uniform_int(1, 60));
    if (rng.chance(0.3))
      spec.extra_transfer_per_client = rng.uniform(0.0, 1.0);
    if (spec.planning_slot_duration() > spec.cycle) continue;

    const int clients = static_cast<int>(rng.uniform_int(0, 5000));
    const auto policy = policies[rng.uniform_int(0, 2)];
    core::CompactLayout layout;
    core::allocate_compact_into(clients, spec, policy, layout);
    const auto vec = beesim::oracle::allocate(clients, spec, policy);

    EXPECT_EQ(layout.total_clients(), clients) << "trial " << trial;
    EXPECT_EQ(layout.servers_used(), vec.servers_used());
    EXPECT_LE(layout.class_count, core::CompactLayout::kMaxClasses);
    const auto expanded = beesim::oracle::expand(layout);
    ASSERT_EQ(expanded.servers.size(), vec.servers.size())
        << "trial " << trial << " policy " << core::to_string(policy)
        << " clients " << clients;
    for (std::size_t s = 0; s < vec.servers.size(); ++s)
      EXPECT_EQ(expanded.servers[s].slot_clients,
                vec.servers[s].slot_clients)
          << "trial " << trial << " server " << s;
    ++checked;
  }
  EXPECT_GE(checked, 100);
}

// ----------------------------------------------------- Scenario invariants

TEST(FuzzScenario, TimeRowsAlwaysSumToCycle) {
  beesim::util::Rng rng(104);
  for (int trial = 0; trial < 60; ++trial) {
    const double cycle = rng.uniform(150.0, 7200.0);
    for (auto placement :
         {core::Placement::kEdgeOnly, core::Placement::kEdgeCloud}) {
      for (auto service :
           {core::ServiceModel::kSvm, core::ServiceModel::kCnn}) {
        const auto table =
            core::build_scenario_table(placement, service, cycle);
        EXPECT_NEAR(table.time_total(), cycle, 1e-9);
        for (const auto& row : table.rows) {
          EXPECT_GE(row.time, 0.0);
          EXPECT_GE(row.edge_energy, 0.0);
          EXPECT_GE(row.cloud_energy, 0.0);
        }
      }
    }
  }
}

TEST(FuzzScenario, EdgeEnergyMonotoneInCycleLength) {
  // Longer cycles only add sleep, so edge energy grows linearly and
  // average power falls.
  double prev_energy = 0.0;
  double prev_power = 1e9;
  for (double cycle = 200.0; cycle <= 3600.0; cycle += 100.0) {
    const double e = core::edge_cycle_energy(core::Placement::kEdgeOnly,
                                             core::ServiceModel::kCnn,
                                             cycle);
    EXPECT_GT(e, prev_energy);
    EXPECT_LT(e / cycle, prev_power);
    prev_energy = e;
    prev_power = e / cycle;
  }
}

// ----------------------------------------------- Large-scale invariants

TEST(FuzzLargeScale, CloudEnergyMonotoneAndBounded) {
  beesim::util::Rng rng(105);
  for (int trial = 0; trial < 20; ++trial) {
    const int parallel = static_cast<int>(rng.uniform_int(5, 50));
    core::LargeScaleSimulator simulator(core::FleetParams::paper_default(
        core::ServiceModel::kCnn, parallel));
    double prev_cloud = 0.0;
    for (int n = 10; n <= 800; n += 37) {
      const auto r = simulator.simulate_ideal_cycle(n);
      // Total cloud energy never decreases with more clients...
      EXPECT_GE(r.cloud_energy, prev_cloud - 1e-9) << "n=" << n;
      prev_cloud = r.cloud_energy;
      // ...and is always at least the idle floor of the servers used.
      EXPECT_GE(r.cloud_energy,
                r.servers_used * 44.6 * 300.0 * 0.9);
      // Edge energy is exactly linear in clients.
      EXPECT_NEAR(r.edge_energy, 322.0 * n, 0.2 * n);
    }
  }
}

TEST(FuzzLargeScale, PerClientCostDecreasesExceptAtSlotOpenings) {
  // Opening a new time slot adds its receive+inference energy, so the
  // per-client cost may tick up exactly there; everywhere else (same
  // slot count, one server) it must fall, and it must fall across
  // full-slot boundaries.
  core::LargeScaleSimulator simulator(core::FleetParams::paper_default());
  const auto& spec = simulator.effective_server();
  const int capacity = spec.capacity();
  double prev = 1e18;
  int prev_slots = 0;
  for (int n = 1; n <= capacity; ++n) {
    const auto r = simulator.simulate_ideal_cycle(n);
    if (r.active_slots == prev_slots) {
      EXPECT_LE(r.cloud_per_client(), prev + 1e-9) << "n=" << n;
    }
    prev = r.cloud_per_client();
    prev_slots = r.active_slots;
  }
  // Full-slot points (n = k * max_parallel) are monotone in k.
  prev = 1e18;
  for (int k = 1; k <= spec.slots_per_cycle(); ++k) {
    const double c = simulator.simulate_ideal_cycle(k * spec.max_parallel)
                         .cloud_per_client();
    EXPECT_LT(c, prev) << "k=" << k;
    prev = c;
  }
}

// -------------------------------------- Randomized DES/analytic agreement

TEST(FuzzDesCheck, AnalyticMatchesEventDrivenForRandomConfigs) {
  beesim::util::Rng rng(106);
  int checked = 0;
  for (int trial = 0; trial < 40 && checked < 12; ++trial) {
    const auto service = rng.chance(0.5) ? core::ServiceModel::kSvm
                                         : core::ServiceModel::kCnn;
    const int parallel = static_cast<int>(rng.uniform_int(2, 12));
    const int clients = static_cast<int>(rng.uniform_int(1, 5 * parallel));
    core::LargeScaleSimulator simulator(
        core::FleetParams::paper_default(service, parallel));
    // Skip configs whose slot schedule cannot fit the replay window.
    const auto spec = simulator.effective_server();
    const int slots = (clients + parallel - 1) / parallel;
    if (64.0 + slots * spec.planning_slot_duration() + 9.9 > 300.0)
      continue;
    const auto des =
        beesim::oracle::des_replay_cycle(service, clients, parallel);
    const auto ana = simulator.simulate_ideal_cycle(clients);
    EXPECT_NEAR(des.edge_energy, ana.edge_energy, 0.5)
        << "service " << static_cast<int>(service) << " clients "
        << clients << " parallel " << parallel;
    EXPECT_NEAR(des.cloud_energy, ana.cloud_energy, 0.5);
    ++checked;
  }
  EXPECT_GE(checked, 8) << "fuzz generated too few feasible configs";
}
