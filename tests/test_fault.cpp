#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/fleet_columns.hpp"
#include "core/resilience.hpp"
#include "fault/degradation.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "fleet_oracle.hpp"
#include "obs/catalog.hpp"
#include "util/rng.hpp"

namespace core = beesim::core;
namespace fault = beesim::fault;
namespace u = beesim::util;
using fault::FaultKind;
using fault::FaultPlan;

namespace {

// Conservation invariant of the delivery ledger: every produced byte is
// served, recovered, dropped, or still pending in the buffer.
void expect_conserved(const core::ResiliencePoint& p) {
  EXPECT_NEAR(p.bytes_generated,
              p.bytes_served + p.bytes_recovered + p.bytes_dropped +
                  p.bytes_pending,
              1e-6);
}

core::FleetParams fleet(core::LossConfig loss = core::LossConfig::none()) {
  core::FleetParams f = core::FleetParams::paper_default();
  f.loss = loss;
  return f;
}

}  // namespace

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, ValidatesWindows) {
  FaultPlan plan;
  EXPECT_THROW(plan.add({FaultKind::kLinkOutage, -1, 3}),
               std::invalid_argument);
  EXPECT_THROW(plan.add({FaultKind::kLinkOutage, 5, 3}),
               std::invalid_argument);
  // Severity rules are kind-specific: factors must lie strictly in (0, 1).
  EXPECT_THROW(plan.add({FaultKind::kCloudBrownout, 0, 1, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(plan.add({FaultKind::kBatteryDerate, 0, 1, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(plan.add({FaultKind::kSensorDropout, 0, 1, 1.5}),
               std::invalid_argument);
  plan.add({FaultKind::kLinkOutage, 0, 3});
  plan.add({FaultKind::kCloudBrownout, 2, 6, 0.5});
  plan.add({FaultKind::kSensorDropout, 0, 0, 1.0});  // 1.0 valid here
  EXPECT_EQ(plan.windows().size(), 3u);
  EXPECT_EQ(plan.horizon_cycles(), 7);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(FaultPlan::none().empty());
  EXPECT_EQ(FaultPlan::none().horizon_cycles(), 0);
}

TEST(FaultPlan, RejectsWindowEndingAtIntMax) {
  // One past INT_MAX is no horizon: the window is refused at add(), so
  // horizon_cycles() cannot overflow and no injector sizes a timeline
  // from it.
  constexpr int kMax = std::numeric_limits<int>::max();
  FaultPlan plan;
  EXPECT_THROW(plan.add({FaultKind::kCloudBrownout, 0, kMax, 0.5}),
               std::invalid_argument);
  EXPECT_THROW(plan.add({FaultKind::kLinkOutage, kMax, kMax}),
               std::invalid_argument);
  EXPECT_TRUE(plan.empty());
  plan.add({FaultKind::kLinkOutage, kMax - 1, kMax - 1});
  EXPECT_EQ(plan.horizon_cycles(), kMax);
}

TEST(FaultPlan, RandomOutagesDeterministicAndEmptyAtRateZero) {
  const auto a = FaultPlan::random_outages(42, 500, 0.15, 4);
  const auto b = FaultPlan::random_outages(42, 500, 0.15, 4);
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    EXPECT_EQ(a.windows()[i].first_cycle, b.windows()[i].first_cycle);
    EXPECT_EQ(a.windows()[i].last_cycle, b.windows()[i].last_cycle);
    EXPECT_EQ(a.windows()[i].kind, b.windows()[i].kind);
  }
  EXPECT_TRUE(FaultPlan::random_outages(42, 500, 0.0, 4).empty());
  EXPECT_TRUE(FaultPlan::random_outages(42, 0, 0.5, 4).empty());
  // Different seeds (or kinds) give different schedules.
  const auto c = FaultPlan::random_outages(43, 500, 0.15, 4);
  EXPECT_TRUE(a.windows().size() != c.windows().size() ||
              a.windows()[0].first_cycle != c.windows()[0].first_cycle);
}

TEST(FaultPlan, RandomOutagesCoverageApproximatesRate) {
  const int cycles = 4000;
  const double rate = 0.2;
  const fault::FaultInjector injector(
      FaultPlan::random_outages(7, cycles, rate, 3));
  const double covered =
      static_cast<double>(injector.faulted_cycles()) / cycles;
  EXPECT_GT(covered, rate * 0.6);
  EXPECT_LT(covered, rate * 1.5);
}

// ------------------------------------------------------------ FaultInjector

TEST(FaultInjector, ComposesOverlappingWindows) {
  FaultPlan plan;
  plan.add({FaultKind::kCloudBrownout, 0, 4, 0.5});
  plan.add({FaultKind::kCloudBrownout, 2, 6, 0.8});  // overlap: 2..4
  plan.add({FaultKind::kSensorDropout, 3, 3, 0.5});
  plan.add({FaultKind::kSensorDropout, 3, 3, 0.5});
  plan.add({FaultKind::kLinkOutage, 6, 6});
  const fault::FaultInjector injector(plan);
  EXPECT_EQ(injector.horizon(), 7);
  EXPECT_EQ(injector.faulted_cycles(), 7);
  EXPECT_DOUBLE_EQ(injector.at(1).cloud_capacity_factor, 0.5);
  EXPECT_DOUBLE_EQ(injector.at(3).cloud_capacity_factor, 0.5 * 0.8);
  EXPECT_DOUBLE_EQ(injector.at(5).cloud_capacity_factor, 0.8);
  // Independent failures compose: 1 - (1-0.5)(1-0.5).
  EXPECT_DOUBLE_EQ(injector.at(3).sensor_dropout_fraction, 0.75);
  EXPECT_TRUE(injector.at(6).link_outage);
  // Out-of-range cycles are fault-free.
  EXPECT_FALSE(injector.at(-1).any());
  EXPECT_FALSE(injector.at(100).any());
}

TEST(FaultInjector, CycleAtMapsSimTimeOntoSlotClock) {
  EXPECT_EQ(fault::FaultInjector::cycle_at(0.0, 300.0), 0);
  EXPECT_EQ(fault::FaultInjector::cycle_at(299.9, 300.0), 0);
  EXPECT_EQ(fault::FaultInjector::cycle_at(300.0, 300.0), 1);
  EXPECT_EQ(fault::FaultInjector::cycle_at(3000.0, 300.0), 10);
  EXPECT_EQ(fault::FaultInjector::cycle_at(-5.0, 300.0), -1);
  EXPECT_THROW(fault::FaultInjector::cycle_at(10.0, 0.0),
               std::invalid_argument);
}

// ---------------------------------------------------- StoreAndForwardBuffer

TEST(StoreAndForwardBuffer, AccountsOverflowExactly) {
  fault::StoreAndForwardBuffer buffer(10.0);
  EXPECT_DOUBLE_EQ(buffer.offer(6.0), 6.0);
  EXPECT_DOUBLE_EQ(buffer.offer(6.0), 4.0);  // 2 bytes overflow
  EXPECT_DOUBLE_EQ(buffer.buffered(), 10.0);
  EXPECT_DOUBLE_EQ(buffer.dropped_bytes(), 2.0);
  EXPECT_EQ(buffer.drop_events(), 1u);
  EXPECT_DOUBLE_EQ(buffer.peak_bytes(), 10.0);
  EXPECT_DOUBLE_EQ(buffer.drain(7.0), 7.0);
  EXPECT_DOUBLE_EQ(buffer.drain(7.0), 3.0);  // only 3 left
  EXPECT_DOUBLE_EQ(buffer.buffered(), 0.0);
  EXPECT_DOUBLE_EQ(buffer.enqueued_bytes(), 10.0);
  EXPECT_THROW(buffer.offer(-1.0), std::invalid_argument);
  EXPECT_THROW(buffer.drain(-1.0), std::invalid_argument);
  EXPECT_THROW(fault::StoreAndForwardBuffer(-1.0), std::invalid_argument);
}

// ------------------------------------------------------------ ResilientFleet

TEST(ResilientFleet, EmptyPlanBitIdenticalToBaseSimulator) {
  // The acceptance contract: with no faults scheduled the resilient
  // wrapper must replay LargeScaleSimulator::sweep exactly — same
  // streams, same draw order, bit-identical statistics.
  const core::FleetParams params = fleet(core::LossConfig::all());
  const core::LargeScaleSimulator base(params);
  const core::ResilientFleet resilient(params, FaultPlan::none());
  const std::vector<int> range = {50, 200, 350};
  const auto expected = base.sweep(range, 7, 5, 2);
  const auto actual = resilient.sweep(range, 7, 5, 2);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].servers_used, expected[i].servers_used);
    EXPECT_EQ(actual[i].lost_clients.mean(),
              expected[i].lost_clients.mean());
    EXPECT_EQ(actual[i].edge_energy.mean(),
              expected[i].edge_energy.mean());
    EXPECT_EQ(actual[i].cloud_energy.mean(),
              expected[i].cloud_energy.mean());
    EXPECT_EQ(actual[i].total_energy.mean(),
              expected[i].total_energy.mean());
    EXPECT_EQ(actual[i].degraded_cycles, 0);
    EXPECT_DOUBLE_EQ(actual[i].delivery_fraction(), 1.0);
    expect_conserved(actual[i]);
  }
}

TEST(ResilientFleet, CloudOutageFallsBackToEdgeAndRecoversBacklog) {
  FaultPlan plan;
  plan.add({FaultKind::kCloudOutage, 0, 4});
  const core::ResilientFleet resilient(fleet(), plan);
  u::Rng rng(7);
  const int clients = 50;
  const auto p = resilient.run_point(clients, 10, rng);
  EXPECT_EQ(p.degraded_cycles, 5);
  EXPECT_EQ(p.edge_fallback_cycles, 5);
  EXPECT_EQ(p.fallback_client_cycles, 5LL * clients);
  const double upload = resilient.policy().upload_bytes_per_client;
  // 5 outage cycles queue 5 payloads/client (under the 8-payload bound);
  // the 5 healthy cycles drain one payload/client each — full recovery.
  EXPECT_DOUBLE_EQ(p.bytes_recovered, 5.0 * clients * upload);
  EXPECT_DOUBLE_EQ(p.bytes_dropped, 0.0);
  EXPECT_DOUBLE_EQ(p.bytes_pending, 0.0);
  EXPECT_DOUBLE_EQ(p.delivery_fraction(), 1.0);
  expect_conserved(p);
  // Edge-only fallback is costlier per client-cycle than the edge+cloud
  // routine (Table I vs Table II edge shares).
  const core::ResilientFleet clean(fleet(), FaultPlan::none());
  u::Rng rng2(7);
  const auto c = clean.run_point(clients, 10, rng2);
  EXPECT_GT(p.edge_energy.mean(), c.edge_energy.mean());
  // ...while the dead cloud bills nothing during the window.
  EXPECT_LT(p.cloud_energy.mean(), c.cloud_energy.mean());
}

TEST(ResilientFleet, LinkOutageOverflowsBoundedBufferAndDrops) {
  FaultPlan plan;
  plan.add({FaultKind::kLinkOutage, 0, 4});
  core::ResiliencePolicy policy;
  policy.buffer_bytes_per_client = 2.0 * policy.upload_bytes_per_client;
  policy.edge_fallback = false;
  const int clients = 100;
  const core::ResilientFleet resilient(fleet(), plan, policy);
  u::Rng rng(7);
  const auto p = resilient.run_point(clients, 5, rng);
  const double upload = policy.upload_bytes_per_client;
  // 5 payloads/client offered into a 2-payload/client buffer.
  EXPECT_DOUBLE_EQ(p.bytes_dropped, 3.0 * clients * upload);
  EXPECT_DOUBLE_EQ(p.bytes_pending, 2.0 * clients * upload);
  EXPECT_DOUBLE_EQ(p.bytes_served, 0.0);
  EXPECT_DOUBLE_EQ(p.delivery_fraction(), 0.0);
  expect_conserved(p);
  // A live-but-unreachable cloud still idles its provisioned servers.
  EXPECT_GT(p.cloud_energy.mean(), 0.0);
  EXPECT_EQ(p.edge_fallback_cycles, 0);
}

TEST(ResilientFleet, StoreAndForwardDisabledDropsImmediately) {
  FaultPlan plan;
  plan.add({FaultKind::kLinkOutage, 0, 1});
  core::ResiliencePolicy policy;
  policy.store_and_forward = false;
  const core::ResilientFleet resilient(fleet(), plan, policy);
  u::Rng rng(7);
  const auto p = resilient.run_point(40, 4, rng);
  const double upload = policy.upload_bytes_per_client;
  EXPECT_DOUBLE_EQ(p.bytes_dropped, 2.0 * 40 * upload);
  EXPECT_DOUBLE_EQ(p.bytes_recovered, 0.0);
  EXPECT_DOUBLE_EQ(p.bytes_pending, 0.0);
  expect_conserved(p);
}

TEST(ResilientFleet, BatteryDerateShedsOrBrownsOut) {
  FaultPlan plan;
  plan.add({FaultKind::kBatteryDerate, 0, 2, 0.4});  // 40% budget left
  const int clients = 100;
  u::Rng rng(7);
  const core::ResilientFleet shedding(fleet(), plan);
  const auto shed = shedding.run_point(clients, 3, rng);
  EXPECT_EQ(shed.shed_client_cycles, 3LL * 60);  // 60% shed per cycle
  EXPECT_EQ(shed.browned_client_cycles, 0);
  expect_conserved(shed);

  core::ResiliencePolicy no_shedding;
  no_shedding.load_shedding = false;
  u::Rng rng2(7);
  const core::ResilientFleet browning(fleet(), plan, no_shedding);
  const auto brown = browning.run_point(clients, 3, rng2);
  EXPECT_EQ(brown.browned_client_cycles, 3LL * 60);
  EXPECT_EQ(brown.shed_client_cycles, 0);
  // Shedding sleeps through the cycle; browning out spends the full
  // routine energy for nothing — strictly worse.
  EXPECT_GT(brown.edge_energy.mean(), shed.edge_energy.mean());
  expect_conserved(brown);
}

TEST(ResilientFleet, SensorDropoutMutesWithoutSavingEnergy) {
  FaultPlan plan;
  plan.add({FaultKind::kSensorDropout, 0, 1, 0.5});
  const int clients = 80;
  const core::ResilientFleet resilient(fleet(), plan);
  u::Rng rng(7);
  const auto p = resilient.run_point(clients, 2, rng);
  EXPECT_EQ(p.sensor_mute_client_cycles, 2LL * 40);
  const double upload = resilient.policy().upload_bytes_per_client;
  EXPECT_DOUBLE_EQ(p.bytes_lost, 2.0 * 40 * upload);
  // Mute clients still run the routine: edge energy matches fault-free.
  const core::ResilientFleet clean(fleet(), FaultPlan::none());
  u::Rng rng2(7);
  const auto c = clean.run_point(clients, 2, rng2);
  EXPECT_NEAR(p.edge_energy.mean(), c.edge_energy.mean(), 1e-9);
  expect_conserved(p);
}

TEST(ResilientFleet, CloudBrownoutRaisesServerCount) {
  FaultPlan plan;
  plan.add({FaultKind::kCloudBrownout, 0, 0, 0.5});  // half the parallelism
  const core::ResilientFleet resilient(fleet(), plan);
  const core::ResilientFleet clean(fleet(), FaultPlan::none());
  u::Rng rng1(7);
  u::Rng rng2(7);
  const auto degraded = resilient.run_point(300, 1, rng1);
  const auto healthy = clean.run_point(300, 1, rng2);
  EXPECT_GT(degraded.servers_used, healthy.servers_used);
  EXPECT_DOUBLE_EQ(degraded.delivery_fraction(), 1.0);
  expect_conserved(degraded);
}

TEST(ResilientFleet, SweepDeterministicAcrossThreadsAndRuns) {
  const auto plan = FaultPlan::random_outages(11, 40, 0.25, 3);
  const core::ResilientFleet resilient(fleet(core::LossConfig::all()),
                                       plan);
  const std::vector<int> range = {100, 300, 500};
  const auto one = resilient.sweep(range, 9, 40, 1);
  const auto four = resilient.sweep(range, 9, 40, 4);
  const auto again = resilient.sweep(range, 9, 40, 4);
  for (std::size_t i = 0; i < range.size(); ++i) {
    EXPECT_EQ(one[i].total_energy.mean(), four[i].total_energy.mean());
    EXPECT_EQ(one[i].bytes_recovered, four[i].bytes_recovered);
    EXPECT_EQ(one[i].bytes_dropped, four[i].bytes_dropped);
    EXPECT_EQ(four[i].total_energy.mean(), again[i].total_energy.mean());
    expect_conserved(one[i]);
  }
}

TEST(ResilientFleet, RejectsInvalidUse) {
  EXPECT_THROW(
      {
        core::ResiliencePolicy bad;
        bad.upload_bytes_per_client = 0.0;
        core::ResilientFleet f(fleet(), FaultPlan::none(), bad);
      },
      std::invalid_argument);
  const core::ResilientFleet resilient(fleet(), FaultPlan::none());
  u::Rng rng(1);
  EXPECT_THROW(resilient.run_point(-1, 1, rng), std::invalid_argument);
  EXPECT_THROW(resilient.run_point(10, 0, rng), std::invalid_argument);
  EXPECT_THROW(resilient.sweep({10}, 1, 0), std::invalid_argument);
}

TEST(ResilientFleet, ValidateRefusesSiblingGeometriesThatCannotFitASlot) {
  // A CNN slot is 15 s of receive + 1 s of processing in a 300 s cycle,
  // so a link must keep about 5 % of its bandwidth for one to fit.
  const core::FleetParams params = core::FleetParams::paper_default();
  const core::ResiliencePolicy policy;
  const auto svc = core::ServiceModel::kCnn;
  FaultPlan fits;
  fits.add({FaultKind::kLinkDegraded, 0, 3, 0.2});
  fits.add({FaultKind::kLinkDegraded, 5, 8, 0.2});
  EXPECT_NO_THROW(core::ResilientFleet::validate(params, fits, policy, svc));
  EXPECT_NO_THROW(core::ResilientFleet(params, fits, policy, svc));

  // Two overlapping 0.2 windows leave 4 % of the link: the product sibling
  // no longer fits, though each window alone does.
  FaultPlan overlapping;
  overlapping.add({FaultKind::kLinkDegraded, 0, 3, 0.2});
  overlapping.add({FaultKind::kLinkDegraded, 2, 6, 0.2});
  FaultPlan starved;
  starved.add({FaultKind::kLinkDegraded, 4, 4, 0.01});
  for (const FaultPlan& plan : {overlapping, starved}) {
    try {
      core::ResilientFleet::validate(params, plan, policy, svc);
      ADD_FAILURE() << "validate accepted an unfittable sibling";
    } catch (const std::invalid_argument& e) {
      const std::string why = e.what();
      EXPECT_NE(why.find("bandwidth factor"), std::string::npos) << why;
      EXPECT_NE(why.find("does not fit"), std::string::npos) << why;
    }
    EXPECT_THROW(core::ResilientFleet(params, plan, policy, svc),
                 std::invalid_argument);
  }
  // A link outage over the same cycles builds no sibling at all.
  FaultPlan outage = overlapping;
  outage.add({FaultKind::kLinkOutage, 0, 6});
  EXPECT_NO_THROW(core::ResilientFleet::validate(params, outage, policy, svc));
}

TEST(ResilientFleet, ValidateRefusesEdgeOnlyRoutinesLongerThanThePeriod) {
  // A 100 s cycle fits the 89 s edge+cloud routine but neither edge-only
  // one (113 s CNN, 121.5 s SVM), which the fallback prices.
  for (const auto svc : {core::ServiceModel::kCnn, core::ServiceModel::kSvm}) {
    const core::FleetParams params =
        core::FleetParams::paper_default(svc, 10, 100.0);
    EXPECT_NO_THROW(core::validate(params));
    try {
      core::ResilientFleet::validate(params, FaultPlan::none(), {}, svc);
      ADD_FAILURE() << "validate accepted an edge-only routine > period";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("edge-only"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(core::ResilientFleet(params, FaultPlan::none(), {}, svc),
                 std::invalid_argument);
    EXPECT_THROW(core::validate_edge_only(svc, 100.0), std::invalid_argument);
    EXPECT_NO_THROW(core::validate_edge_only(svc, 300.0));
  }
}

// -------------------------------------- ResilientFleet against the oracle

namespace {

/// Every FaultKind, with overlapping brownout and degraded-link windows
/// (a product-factor sibling), overlapping derates, a second brownout
/// sibling, outages on top of derate/dropout/brownout cycles, and clean
/// gaps. The points run past the 40-cycle horizon, so the memo also
/// serves a clean tail.
FaultPlan every_kind_plan() {
  FaultPlan plan;
  plan.add({FaultKind::kCloudOutage, 2, 4});
  plan.add({FaultKind::kLinkOutage, 7, 9});
  plan.add({FaultKind::kCloudBrownout, 12, 17, 0.5});
  plan.add({FaultKind::kLinkDegraded, 15, 20, 0.6});
  plan.add({FaultKind::kBatteryDerate, 23, 27, 0.7});
  plan.add({FaultKind::kBatteryDerate, 25, 29, 0.5});
  plan.add({FaultKind::kSensorDropout, 28, 33, 0.3});
  plan.add({FaultKind::kLinkOutage, 30, 31});
  plan.add({FaultKind::kCloudBrownout, 35, 39, 0.25});
  plan.add({FaultKind::kCloudOutage, 37, 37});
  return plan;
}

constexpr int kOracleCycles = 60;
constexpr std::uint64_t kOracleSeed = 23;
const std::vector<int> kOracleSizes = {1, 7, 64, 333, 4000, 100000, 1000000};

core::FleetParams lossy(double dropout_stddev) {
  core::FleetParams params = fleet(core::LossConfig::all());
  params.loss.dropout_stddev = dropout_stddev;
  return params;
}

/// sweep() at 1 and 4 threads, and advance() in 3-point slices, each
/// compared raw field for raw field with the scalar oracle — at a
/// dropout stddev of 2 and of 200, the second scattering the surviving
/// counts so memo slots collide.
void expect_matches_oracle(const core::ResiliencePolicy& policy) {
  for (const double stddev : {2.0, 200.0}) {
    SCOPED_TRACE("dropout_stddev " + std::to_string(stddev));
    const core::ResilientFleet resilient(lossy(stddev), every_kind_plan(),
                                         policy);
    const auto reference = beesim::oracle::reference_resilient_sweep(
        resilient, kOracleSizes, kOracleSeed, kOracleCycles);
    core::ResilienceColumns sliced = core::ResilienceColumns::start(
        kOracleSizes, kOracleSeed, kOracleCycles);
    while (!resilient.advance(sliced, 3, 2)) {
    }
    const std::vector<std::vector<core::ResiliencePoint>> runs = {
        resilient.sweep(kOracleSizes, kOracleSeed, kOracleCycles, 1),
        resilient.sweep(kOracleSizes, kOracleSeed, kOracleCycles, 4),
        sliced.points()};
    for (const auto& run : runs) {
      ASSERT_EQ(run.size(), reference.size());
      for (std::size_t i = 0; i < run.size(); ++i)
        beesim::oracle::expect_same_point(run[i], reference[i]);
    }
  }
}

}  // namespace

TEST(ResilientFleetOracle, DefaultPolicy) {
  expect_matches_oracle(core::ResiliencePolicy{});
}

TEST(ResilientFleetOracle, EveryReactionOff) {
  core::ResiliencePolicy policy;
  policy.edge_fallback = false;
  policy.store_and_forward = false;
  policy.load_shedding = false;
  expect_matches_oracle(policy);
}

TEST(ResilientFleetOracle, LoadSheddingOff) {
  core::ResiliencePolicy policy;
  policy.load_shedding = false;
  expect_matches_oracle(policy);
}

TEST(ResilientFleetOracle, BeamShedsDuringOutages) {
  core::ResiliencePolicy policy;
  core::DeviceClassSpec healthy;
  healthy.name = "healthy";
  healthy.count = 50;
  healthy.battery_soc = 0.9;
  core::DeviceClassSpec flat = healthy;
  flat.name = "flat";
  flat.battery_soc = 0.1;
  policy.classes = {healthy, flat};
  policy.outage_loss_tolerance = 0.6;
  ASSERT_GT(core::ResilientFleet(lossy(2.0), every_kind_plan(), policy)
                .outage_shed_fraction(),
            0.0);
  expect_matches_oracle(policy);
}

TEST(ResilientFleetOracle, ObsCountsEveryCycleAsThePlainLoopDid) {
  // While obs is on the memos are bypassed, so a faulted sweep must count
  // exactly what the memo-free loop counted (literals recorded with it).
  const bool was_enabled = beesim::obs::enabled();
  beesim::obs::set_enabled(true);
  beesim::obs::register_catalog(beesim::obs::registry());
  beesim::obs::registry().reset_values();
  const core::ResilientFleet resilient(lossy(2.0), every_kind_plan());
  const auto points =
      resilient.sweep(kOracleSizes, kOracleSeed, kOracleCycles, 1);
  const auto counters = beesim::obs::registry().snapshot().counters;
  beesim::obs::set_enabled(was_enabled);
  namespace metric = beesim::obs::metric;
  EXPECT_EQ(counters.at(metric::kFleetCycles), 391u);
  EXPECT_EQ(counters.at(metric::kAllocatorCalls), 372u);
  EXPECT_EQ(counters.at(metric::kLossSaturatedSlots), 7250977u);
  EXPECT_EQ(counters.at(metric::kFleetDegradedCycles), 217u);
  const auto reference = beesim::oracle::reference_resilient_sweep(
      resilient, kOracleSizes, kOracleSeed, kOracleCycles);
  for (std::size_t i = 0; i < points.size(); ++i)
    beesim::oracle::expect_same_point(points[i], reference[i]);
}
