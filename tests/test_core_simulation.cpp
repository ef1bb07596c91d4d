#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/fleet_columns.hpp"
#include "core/loss.hpp"
#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "des_oracle.hpp"
#include "fault/fault.hpp"
#include "fleet_oracle.hpp"

namespace core = beesim::core;
using beesim::oracle::des_replay_cycle;
using beesim::oracle::expect_same_point;
using beesim::oracle::reference_sweep;
using core::FillPolicy;
using core::LossConfig;
using core::ServiceModel;

// --------------------------------------------------------------- LossConfig

TEST(LossConfig, FactoriesEnableOneMechanismEach) {
  EXPECT_TRUE(LossConfig::only_saturation().slot_saturation);
  EXPECT_FALSE(LossConfig::only_saturation().transfer_stretch);
  EXPECT_TRUE(LossConfig::only_transfer_stretch().transfer_stretch);
  EXPECT_TRUE(LossConfig::only_dropout().client_dropout);
  const auto all = LossConfig::all();
  EXPECT_TRUE(all.slot_saturation && all.transfer_stretch &&
              all.client_dropout);
}

TEST(LossConfig, SaturationFactorCompounds) {
  const auto loss = LossConfig::only_saturation();
  // Threshold at max_parallel - 5 = 5; below it, no penalty.
  EXPECT_DOUBLE_EQ(loss.saturation_factor(5, 10), 1.0);
  EXPECT_DOUBLE_EQ(loss.saturation_factor(6, 10), 1.1);
  EXPECT_NEAR(loss.saturation_factor(10, 10), std::pow(1.1, 5), 1e-12);
  // Disabled -> always 1.
  EXPECT_DOUBLE_EQ(LossConfig::none().saturation_factor(10, 10), 1.0);
}

TEST(LossConfig, DropoutDrawsNearTenPercent) {
  const auto loss = LossConfig::only_dropout();
  beesim::util::Rng rng(21);
  double total = 0.0;
  const int reps = 2000;
  for (int i = 0; i < reps; ++i) {
    const int lost = loss.draw_lost_clients(200, rng);
    EXPECT_GE(lost, 0);
    EXPECT_LE(lost, 200);
    total += lost;
  }
  EXPECT_NEAR(total / reps, 20.0, 0.5);  // 10 % of 200
}

TEST(LossConfig, DropoutDisabledDrawsZero) {
  beesim::util::Rng rng(22);
  EXPECT_EQ(LossConfig::none().draw_lost_clients(500, rng), 0);
}

// --------------------------------------------------- Fig 6 (ideal network)

TEST(Fig6, EdgeCostPerClientIsFlat322) {
  core::LargeScaleSimulator sim(core::FleetParams::paper_default());
  for (int n : {10, 50, 100, 250, 400}) {
    const auto r = sim.simulate_ideal_cycle(n);
    EXPECT_NEAR(r.edge_per_client(), 322.0, 0.2) << "n=" << n;
  }
}

TEST(Fig6, ServerCostPerClientConvergesTo116) {
  core::LargeScaleSimulator sim(core::FleetParams::paper_default());
  const int cap = sim.effective_server().capacity();
  const auto full = sim.simulate_ideal_cycle(cap);
  EXPECT_NEAR(full.cloud_per_client(), 116.0, 2.0);
  // Best total per beehive: 438 J (paper Section VI.B).
  EXPECT_NEAR(full.total_per_client(), 438.0, 2.5);
}

TEST(Fig6, ServerCostPerClientDecreasesTowardTheFloor) {
  core::LargeScaleSimulator sim(core::FleetParams::paper_default());
  double prev = 1e18;
  for (int n : {10, 40, 80, 120, 180}) {
    const auto r = sim.simulate_ideal_cycle(n);
    EXPECT_LE(r.cloud_per_client(), prev + 1e-9) << "n=" << n;
    prev = r.cloud_per_client();
  }
}

TEST(Fig6, ServerCountGrowsWithFleet) {
  core::LargeScaleSimulator sim(core::FleetParams::paper_default());
  EXPECT_EQ(sim.simulate_ideal_cycle(10).servers_used, 1);
  EXPECT_EQ(sim.simulate_ideal_cycle(180).servers_used, 1);
  EXPECT_EQ(sim.simulate_ideal_cycle(181).servers_used, 2);
  EXPECT_EQ(sim.simulate_ideal_cycle(400).servers_used, 3);
}

TEST(Fig6, SixteenPercentPremiumAtBestOperatingPoint) {
  // Paper: the 438 J best edge+cloud cost is 16 % above edge-only.
  core::LargeScaleSimulator sim(core::FleetParams::paper_default());
  const auto full =
      sim.simulate_ideal_cycle(sim.effective_server().capacity());
  const double edge_only = core::edge_cycle_energy(
      core::Placement::kEdgeOnly, ServiceModel::kCnn);
  const double premium =
      (full.total_per_client() - edge_only) / full.total_per_client();
  EXPECT_NEAR(premium, 0.16, 0.02);
}

// ------------------------------------------------------- Loss model A (Fig 8a)

TEST(Fig8a, SaturationRaisesServerFloorTo186) {
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = LossConfig::only_saturation();
  core::LargeScaleSimulator sim(fleet);
  const int cap = sim.effective_server().capacity();
  const auto full = sim.simulate_ideal_cycle(2 * cap);
  // Paper: converges towards 186 J (vs 116 J without loss).
  EXPECT_NEAR(full.cloud_per_client(), 186.0, 3.0);
}

TEST(Fig8a, BalancedPolicyAvoidsSaturationPenalty) {
  // Ablation: spreading clients dodges the compounding slot penalty.
  core::FleetParams packed = core::FleetParams::paper_default();
  packed.loss = LossConfig::only_saturation();
  core::FleetParams spread = packed;
  spread.policy = FillPolicy::kBalanced;
  const int n = 90;  // half a server: balanced puts 5/slot (no penalty)
  const auto packed_r =
      core::LargeScaleSimulator(packed).simulate_ideal_cycle(n);
  const auto spread_r =
      core::LargeScaleSimulator(spread).simulate_ideal_cycle(n);
  EXPECT_LT(spread_r.cloud_energy, packed_r.cloud_energy * 0.9);
}

// ------------------------------------------------------- Loss model B (Fig 8b)

TEST(Fig8b, TransferStretchNeedsMoreServers) {
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = LossConfig::only_transfer_stretch();
  core::LargeScaleSimulator sim(fleet);
  // Paper: for 350 clients, 4 servers with the duration penalty versus 2
  // in the no-loss case.
  EXPECT_EQ(sim.simulate_ideal_cycle(350).servers_used, 4);
  core::LargeScaleSimulator ideal(core::FleetParams::paper_default());
  EXPECT_EQ(ideal.simulate_ideal_cycle(350).servers_used, 2);
}

TEST(Fig8b, TransferStretchRaisesPerClientCost) {
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = LossConfig::only_transfer_stretch();
  core::LargeScaleSimulator sim(fleet);
  const auto full =
      sim.simulate_ideal_cycle(sim.effective_server().capacity());
  // Paper: minimum value around 212 J; our receive-scaling model lands a
  // little above (see DESIGN.md) — the floor must exceed the loss-A floor.
  EXPECT_GT(full.cloud_per_client(), 200.0);
  EXPECT_LT(full.cloud_per_client(), 240.0);
}

// ------------------------------------------------------- Loss model C (Fig 8c)

TEST(Fig8c, DropoutLowersMeasuredEnergyPerInitialClient) {
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = LossConfig::only_dropout();
  core::LargeScaleSimulator sim(fleet);
  beesim::util::Rng rng(33);
  const auto lossy = sim.simulate_cycle(200, rng);
  const auto ideal = sim.simulate_ideal_cycle(200);
  EXPECT_GT(lossy.lost_clients, 5);
  EXPECT_LT(lossy.edge_energy, ideal.edge_energy);
  EXPECT_LE(lossy.servers_used, ideal.servers_used);
}

TEST(Fig8c, SurvivorsNeverNegative) {
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = LossConfig::only_dropout();
  fleet.loss.dropout_mean_fraction = 0.9;  // extreme losses
  core::LargeScaleSimulator sim(fleet);
  beesim::util::Rng rng(34);
  for (int i = 0; i < 100; ++i) {
    const auto r = sim.simulate_cycle(10, rng);
    EXPECT_GE(r.surviving_clients(), 0);
    EXPECT_LE(r.lost_clients, 10);
  }
}

// ----------------------------------------------------------- Sweep mechanics

TEST(Sweep, DeterministicForSeed) {
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = LossConfig::all();
  core::LargeScaleSimulator sim(fleet);
  const auto counts = core::client_range(50, 350, 100);
  const auto a = sim.sweep(counts, 7, 3);
  const auto b = sim.sweep(counts, 7, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].edge_energy.mean(), b[i].edge_energy.mean());
    EXPECT_DOUBLE_EQ(a[i].cloud_energy.mean(), b[i].cloud_energy.mean());
    EXPECT_DOUBLE_EQ(a[i].lost_clients.mean(), b[i].lost_clients.mean());
  }
}

TEST(Sweep, ResultIndependentOfSweepRange) {
  // Regression for the per-point RNG streams: each point's stream is
  // derived from (seed, fleet size), so the n=400 statistics are
  // identical whether the sweep is {400} alone or {100, 400}.
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = LossConfig::all();
  core::LargeScaleSimulator sim(fleet);
  const auto pair = sim.sweep({100, 400}, 7, 5);
  const auto solo = sim.sweep({400}, 7, 5);
  ASSERT_EQ(pair.size(), 2u);
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_EQ(pair[1].initial_clients, solo[0].initial_clients);
  EXPECT_EQ(pair[1].servers_used, solo[0].servers_used);
  EXPECT_DOUBLE_EQ(pair[1].lost_clients.mean(), solo[0].lost_clients.mean());
  EXPECT_DOUBLE_EQ(pair[1].edge_energy.mean(), solo[0].edge_energy.mean());
  EXPECT_DOUBLE_EQ(pair[1].cloud_energy.mean(),
                   solo[0].cloud_energy.mean());
  EXPECT_DOUBLE_EQ(pair[1].total_energy.sample_stddev(),
                   solo[0].total_energy.sample_stddev());
}

TEST(Sweep, ResultIndependentOfThreadCount) {
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = LossConfig::all();
  core::LargeScaleSimulator sim(fleet);
  const auto counts = core::client_range(50, 450, 50);
  const auto serial = sim.sweep(counts, 9, 4, /*threads=*/1);
  const auto parallel = sim.sweep(counts, 9, 4, /*threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].servers_used, parallel[i].servers_used);
    EXPECT_DOUBLE_EQ(serial[i].lost_clients.mean(),
                     parallel[i].lost_clients.mean());
    EXPECT_DOUBLE_EQ(serial[i].edge_energy.mean(),
                     parallel[i].edge_energy.mean());
    EXPECT_DOUBLE_EQ(serial[i].cloud_energy.mean(),
                     parallel[i].cloud_energy.mean());
    EXPECT_DOUBLE_EQ(serial[i].total_energy.sample_stddev(),
                     parallel[i].total_energy.sample_stddev());
  }
}

TEST(Sweep, MeansAreNotTruncatedToIntegers) {
  // The old sweep averaged lost clients and energies through
  // static_cast<int>, flooring every mean. Replay one point by hand with
  // the same per-point stream and check the float mean survives.
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = LossConfig::all();
  core::LargeScaleSimulator sim(fleet);
  const int n = 250;
  const int cycles = 3;
  const auto point = sim.sweep({n}, 5, cycles).front();

  beesim::util::Rng rng = beesim::util::Rng::for_stream(5, n);
  double lost_sum = 0.0;
  double edge_sum = 0.0;
  for (int c = 0; c < cycles; ++c) {
    const auto r = sim.simulate_cycle(n, rng);
    lost_sum += r.lost_clients;
    edge_sum += r.edge_energy;
  }
  EXPECT_DOUBLE_EQ(point.lost_clients.mean(), lost_sum / cycles);
  EXPECT_DOUBLE_EQ(point.edge_energy.mean(), edge_sum / cycles);
  // The fractional part the old integer mean dropped is really there.
  EXPECT_NE(point.lost_clients.mean(),
            std::floor(point.lost_clients.mean()));
}

TEST(Sweep, CyclesBelowOneRejected) {
  core::LargeScaleSimulator sim(core::FleetParams::paper_default());
  EXPECT_THROW(sim.sweep({10}, 1, 0), std::invalid_argument);
}

TEST(Sweep, ClientRangeHelper) {
  EXPECT_EQ(core::client_range(10, 40, 10),
            (std::vector<int>{10, 20, 30, 40}));
  EXPECT_EQ(core::client_range(10, 45, 10),
            (std::vector<int>{10, 20, 30, 40}));
  EXPECT_THROW(core::client_range(10, 5, 1), std::invalid_argument);
}

// ------------------------------------ Memoised cycles vs the scalar oracle

namespace {

core::FleetParams lossy(FillPolicy policy = FillPolicy::kFillFirst) {
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = LossConfig::all();
  fleet.policy = policy;
  return fleet;
}

/// Holds every production path of the lossy campaign to the scalar
/// oracle, raw field for raw field: sweep at one and four threads;
/// advance in uneven max_cycles slices, so every point stops and resumes
/// mid-way with a fresh memo; and ResilientFleet::sweep on an empty plan.
void expect_paths_match_oracle(const core::FleetParams& params,
                               const std::vector<int>& counts, int cycles) {
  constexpr std::uint64_t kSeed = 21;
  const core::LargeScaleSimulator sim(params);
  const auto reference = reference_sweep(sim, counts, kSeed, cycles);

  for (unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("sweep threads=" + std::to_string(threads));
    const auto swept = sim.sweep(counts, kSeed, cycles, threads);
    ASSERT_EQ(swept.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i)
      expect_same_point(swept[i], reference[i]);
  }

  {
    SCOPED_TRACE("advance in slices");
    core::FleetColumns columns =
        core::FleetColumns::start(counts, kSeed, cycles);
    const int slice = std::max(1, cycles / 3 - 1);
    int calls = 0;
    while (!sim.advance(columns, slice, 2)) ASSERT_LE(++calls, cycles);
    const auto advanced = columns.points();
    for (std::size_t i = 0; i < reference.size(); ++i)
      expect_same_point(advanced[i], reference[i]);
  }

  SCOPED_TRACE("empty-plan ResilientFleet::sweep");
  const core::ResilientFleet fleet(params, beesim::fault::FaultPlan::none());
  const auto resilient = fleet.sweep(counts, kSeed, cycles, 2);
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_same_point(resilient[i], reference[i]);
}

}  // namespace

class MemoOraclePolicy : public ::testing::TestWithParam<FillPolicy> {};

TEST_P(MemoOraclePolicy, AllLossesMatchTheScalarSweep) {
  expect_paths_match_oracle(lossy(GetParam()), {0, 1, 9, 50, 120, 400, 999},
                            300);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, MemoOraclePolicy,
                         ::testing::Values(FillPolicy::kFillFirst,
                                           FillPolicy::kBalanced,
                                           FillPolicy::kRoundRobin));

TEST(MemoOracle, LossFreeFleetHasOneSurvivingValuePerPoint) {
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = LossConfig::none();
  expect_paths_match_oracle(fleet, {10, 400, 5000}, 200);
}

TEST(MemoOracle, WideDropoutCollidesInTheTable) {
  // A 200-client standard deviation spreads each point's surviving
  // count over far more than the memo's 64 slots, so entries evict one
  // another and the same slot is re-priced many times.
  core::FleetParams fleet = lossy();
  fleet.loss.dropout_stddev = 200.0;
  const std::vector<int> counts{500, 2000, 20000};
  const core::LargeScaleSimulator sim(fleet);
  for (const auto& point : reference_sweep(sim, counts, 21, 400))
    EXPECT_GT(point.lost_clients.max() - point.lost_clients.min(), 128.0);
  expect_paths_match_oracle(fleet, counts, 400);
}

TEST(MemoOracle, MillionHivePointMatchesTheScalarSweep) {
  expect_paths_match_oracle(lossy(), {1000000}, 200);
}

TEST(CycleMemo, EveryMemoisedCycleEqualsThePlainCycle) {
  // Cycle-level form of the oracle property, across hits, misses and
  // evictions: the same stream drawn through both calls.
  core::FleetParams fleet = lossy();
  fleet.loss.dropout_stddev = 200.0;
  const core::LargeScaleSimulator sim(fleet);
  core::CycleMemo memo(sim);
  beesim::util::Rng plain_rng = beesim::util::Rng::for_stream(3, 3000);
  beesim::util::Rng memo_rng = beesim::util::Rng::for_stream(3, 3000);
  for (int c = 0; c < 2000; ++c) {
    const core::CycleResult a = sim.simulate_cycle(3000, plain_rng);
    const core::CycleResult b = sim.simulate_cycle(3000, memo_rng, &memo);
    ASSERT_EQ(a.initial_clients, b.initial_clients) << "cycle " << c;
    ASSERT_EQ(a.lost_clients, b.lost_clients) << "cycle " << c;
    ASSERT_EQ(a.servers_used, b.servers_used) << "cycle " << c;
    ASSERT_EQ(a.active_slots, b.active_slots) << "cycle " << c;
    ASSERT_EQ(a.edge_energy, b.edge_energy) << "cycle " << c;
    ASSERT_EQ(a.cloud_energy, b.cloud_energy) << "cycle " << c;
  }
}

TEST(CycleMemo, RejectsAMemoBoundToAnotherSimulator) {
  const core::LargeScaleSimulator a(lossy());
  const core::LargeScaleSimulator b(lossy());
  core::CycleMemo memo(a);
  beesim::util::Rng rng(1);
  EXPECT_THROW(b.simulate_cycle(10, rng, &memo), std::invalid_argument);
  EXPECT_NO_THROW(a.simulate_cycle(10, rng, &memo));
}

// ----------------------------------- Compact vs vector allocation paths

/// The scaling tentpole: the simulator's O(1) histogram pricing must
/// report the same fleet physics as pricing every slot of the
/// materialized oracle::allocate vectors (tests/fleet_oracle.hpp).
/// Energies go through a different summation order (slots × E vs
/// repeated addition), so they agree to rounding, not bitwise.
class CompactPathEquivalence
    : public ::testing::TestWithParam<FillPolicy> {};

TEST_P(CompactPathEquivalence, MatchesVectorPathAcrossLossModels) {
  for (const auto& loss :
       {LossConfig::none(), LossConfig::only_saturation(),
        LossConfig::only_transfer_stretch(), LossConfig::all()}) {
    core::FleetParams fleet = core::FleetParams::paper_default();
    fleet.loss = loss;
    fleet.policy = GetParam();
    core::LargeScaleSimulator sim(fleet);
    const int cap = sim.effective_server().capacity();
    for (int n : {0, 1, 9, 10, 11, 90, cap - 1, cap, cap + 1, 2 * cap,
                  1000, 54321}) {
      const auto a = sim.simulate_ideal_cycle(n);
      const auto b = beesim::oracle::vector_cycle(sim, n, 0);
      SCOPED_TRACE(std::string("policy ") + core::to_string(GetParam()) +
                   " n=" + std::to_string(n));
      EXPECT_EQ(a.servers_used, b.servers_used);
      EXPECT_EQ(a.active_slots, b.active_slots);
      EXPECT_DOUBLE_EQ(a.edge_energy, b.edge_energy);
      EXPECT_NEAR(a.cloud_energy, b.cloud_energy,
                  1e-9 * std::max(1.0, b.cloud_energy));
    }
  }
}

TEST_P(CompactPathEquivalence, MatchesVectorPathUnderDropout) {
  // With dropout both must also see the same RNG draws: the loss draw
  // happens before allocation, so identical seeds give identical
  // surviving counts on both paths.
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = LossConfig::all();
  fleet.policy = GetParam();
  core::LargeScaleSimulator sim(fleet);
  const auto a = sim.sweep({50, 250, 999}, 13, 4);
  const auto b = beesim::oracle::vector_sweep(sim, {50, 250, 999}, 13, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].servers_used, b[i].servers_used);
    EXPECT_DOUBLE_EQ(a[i].lost_clients.mean(), b[i].lost_clients.mean());
    EXPECT_DOUBLE_EQ(a[i].active_slots.mean(), b[i].active_slots.mean());
    EXPECT_DOUBLE_EQ(a[i].edge_energy.mean(), b[i].edge_energy.mean());
    EXPECT_NEAR(a[i].cloud_energy.mean(), b[i].cloud_energy.mean(),
                1e-9 * std::max(1.0, b[i].cloud_energy.mean()));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CompactPathEquivalence,
                         ::testing::Values(FillPolicy::kFillFirst,
                                           FillPolicy::kBalanced,
                                           FillPolicy::kRoundRobin));

TEST(CompactPath, MillionHiveIdealCycleIsCheap) {
  // Acceptance: the histogram path makes a 1M-hive cycle O(1); sanity
  // numbers only, the wall-clock budget is enforced by scale_fleet.
  core::LargeScaleSimulator sim(core::FleetParams::paper_default());
  const int n = 1000000;
  const auto r = sim.simulate_ideal_cycle(n);
  EXPECT_EQ(r.servers_used, (n + 179) / 180);
  EXPECT_NEAR(r.edge_per_client(), 322.0, 0.2);
  EXPECT_NEAR(r.cloud_per_client(), 116.0, 2.0);
}

TEST(Simulation, MismatchedPeriodsRejected) {
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.client.period = 600.0;
  EXPECT_THROW(core::LargeScaleSimulator{fleet}, std::invalid_argument);
}

TEST(Simulation, ParamsTheCycleCannotRunAreRejectedAtConstruction) {
  const auto rejected = [](void (*edit)(core::FleetParams&)) {
    core::FleetParams fleet = core::FleetParams::paper_default();
    fleet.loss = LossConfig::all();
    edit(fleet);
    try {
      const core::LargeScaleSimulator sim(fleet);
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  EXPECT_FALSE(rejected([](core::FleetParams&) {}));
  // The allocator divides by max_parallel: 0 used to trap on the first
  // cycle (SIGFPE), which no catch can stop.
  EXPECT_TRUE(rejected([](core::FleetParams& p) {
    p.server.max_parallel = 0;
  }));
  EXPECT_TRUE(rejected([](core::FleetParams& p) {
    p.server.max_parallel = -3;
  }));
  EXPECT_TRUE(rejected([](core::FleetParams& p) {
    p.client.sleep_power = std::nan("");
  }));
  EXPECT_TRUE(rejected([](core::FleetParams& p) {
    p.server.idle_power = -1.0;
  }));
  EXPECT_TRUE(rejected([](core::FleetParams& p) {
    p.server.receive_time = std::numeric_limits<double>::infinity();
  }));
  EXPECT_TRUE(rejected([](core::FleetParams& p) {
    p.loss.dropout_stddev = -2.0;
  }));
  EXPECT_TRUE(rejected([](core::FleetParams& p) {
    p.loss.saturation_slack = -1;
  }));
  EXPECT_TRUE(rejected([](core::FleetParams& p) {
    p.policy = static_cast<FillPolicy>(7);
  }));
  EXPECT_TRUE(rejected([](core::FleetParams& p) {
    p.client.actions.front().duration = 1e6;  // longer than the period
  }));
  // Loss model B stretches a full slot past the 300 s cycle.
  EXPECT_TRUE(rejected([](core::FleetParams& p) {
    p.loss.extra_transfer_per_client = 100.0;
  }));
}

// --------------------------------- Analytic vs event-driven cross-validation

class DesCrossCheck
    : public ::testing::TestWithParam<std::tuple<ServiceModel, int>> {};

TEST_P(DesCrossCheck, AnalyticModelMatchesEventDrivenReplay) {
  const auto [service, clients] = GetParam();
  const auto des = des_replay_cycle(service, clients, 10);
  core::LargeScaleSimulator sim(
      core::FleetParams::paper_default(service, 10));
  const auto ana = sim.simulate_ideal_cycle(clients);
  EXPECT_NEAR(des.edge_energy, ana.edge_energy, 0.5);
  EXPECT_NEAR(des.cloud_energy, ana.cloud_energy, 0.5);
  EXPECT_EQ(des.slots_used, ana.active_slots);
}

INSTANTIATE_TEST_SUITE_P(
    ServicesAndSizes, DesCrossCheck,
    ::testing::Combine(::testing::Values(ServiceModel::kSvm,
                                         ServiceModel::kCnn),
                       ::testing::Values(1, 10, 25, 60)));

TEST(DesCrossCheck, RejectsOverCapacity) {
  EXPECT_THROW(des_replay_cycle(ServiceModel::kCnn, 100000, 10),
               std::invalid_argument);
}
