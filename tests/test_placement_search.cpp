#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/canonical.hpp"
#include "core/placement.hpp"
#include "core/placement_search.hpp"
#include "core/resilience.hpp"
#include "energy/battery.hpp"
#include "fault/fault.hpp"
#include "hive/services.hpp"
#include "net/link.hpp"
#include "util/rng.hpp"

namespace core = beesim::core;
namespace fault = beesim::fault;
namespace hive = beesim::hive;
namespace u = beesim::util;
using core::Assignment;
using core::DeviceClassSpec;
using core::FleetAssignment;
using core::FleetSearchOptions;
using core::ParetoFrontier;
using core::PlacementSearch;

namespace {

DeviceClassSpec make_class(const std::string& name, int count,
                           double soc = 1.0, double link = 1.0) {
  DeviceClassSpec cls;
  cls.name = name;
  cls.count = count;
  cls.battery_soc = soc;
  cls.link_quality = link;
  return cls;
}

std::vector<hive::ServiceSpec> two_services() {
  return {hive::services::queen_detection_cnn(),
          hive::services::pollen_detection()};
}

// Frontier invariants shared by every test: sorted by energy ascending
// with strictly decreasing loss (no point weakly dominates another), and
// every point feasible.
void expect_pareto(const ParetoFrontier& frontier) {
  ASSERT_FALSE(frontier.points.empty());
  for (std::size_t i = 0; i < frontier.points.size(); ++i) {
    EXPECT_TRUE(frontier.points[i].feasible);
    if (i == 0) continue;
    EXPECT_GE(frontier.points[i].energy_per_cycle,
              frontier.points[i - 1].energy_per_cycle);
    EXPECT_LT(frontier.points[i].loss_bytes_per_cycle,
              frontier.points[i - 1].loss_bytes_per_cycle);
  }
  for (const auto& a : frontier.points)
    for (const auto& b : frontier.points) {
      if (&a == &b) continue;
      const bool dominates =
          a.energy_per_cycle <= b.energy_per_cycle &&
          a.loss_bytes_per_cycle <= b.loss_bytes_per_cycle;
      EXPECT_FALSE(dominates) << "frontier point dominated";
    }
}

void expect_identical(const ParetoFrontier& a, const ParetoFrontier& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].hash, b.points[i].hash);
    EXPECT_EQ(a.points[i].choice, b.points[i].choice);
    // Bitwise equality, not EXPECT_DOUBLE_EQ: the determinism contract
    // promises byte-identical frontiers.
    EXPECT_EQ(a.points[i].energy_per_cycle, b.points[i].energy_per_cycle);
    EXPECT_EQ(a.points[i].loss_bytes_per_cycle,
              b.points[i].loss_bytes_per_cycle);
  }
}

void expect_conserved(const core::ResiliencePoint& p) {
  EXPECT_NEAR(p.bytes_generated,
              p.bytes_served + p.bytes_recovered + p.bytes_dropped +
                  p.bytes_pending,
              1e-6);
}

}  // namespace

// -------------------------------------------------------------------- names

TEST(PlacementSearch, AssignmentNames) {
  EXPECT_STREQ(core::to_string(Assignment::kEdge), "edge");
  EXPECT_STREQ(core::to_string(Assignment::kCloud), "cloud");
  EXPECT_STREQ(core::to_string(Assignment::kShed), "shed");
}

// --------------------------------------------------------------- validation

TEST(PlacementSearch, DeviceClassSpecValidates) {
  EXPECT_NO_THROW(make_class("ok", 10).validate());
  EXPECT_THROW(make_class("neg", -1).validate(), std::invalid_argument);
  EXPECT_THROW(make_class("soc", 1, 0.0).validate(), std::invalid_argument);
  EXPECT_THROW(make_class("soc", 1, 1.5).validate(), std::invalid_argument);
  EXPECT_THROW(make_class("link", 1, 1.0, 0.0).validate(),
               std::invalid_argument);
  DeviceClassSpec bad = make_class("scale", 1);
  bad.compute_scale = -2.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.compute_scale = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(PlacementSearch, CalibratedClassReadsBatteryAndLink) {
  beesim::energy::Battery battery;  // starts at the default 0.8 SoC
  battery.discharge(battery.capacity() * 0.4);
  const auto cls = DeviceClassSpec::calibrated(
      "far", 25, battery, beesim::net::Link::wifi_far());
  EXPECT_EQ(cls.count, 25);
  // 0.4·capacity delivered at 95% discharge efficiency drains the store
  // by 0.4/0.95 of capacity.
  EXPECT_NEAR(cls.battery_soc, 0.8 - 0.4 / 0.95, 1e-9);
  EXPECT_GT(cls.link_quality, 0.0);
  EXPECT_LT(cls.link_quality, 1.0);  // wifi_far is slower than rooftop
}

TEST(PlacementSearch, SearchOptionsValidate) {
  FleetSearchOptions opt;
  EXPECT_NO_THROW(opt.validate());
  opt.beam_width = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = {};
  opt.max_frontier = 0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = {};
  opt.max_cloud_servers = -1;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = {};
  opt.loss_weight_j_per_mb = -1.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
  opt = {};
  opt.soc_floor = 0.0;
  EXPECT_THROW(opt.validate(), std::invalid_argument);
}

TEST(PlacementSearch, ConstructorRejectsDegenerateCatalogs) {
  const std::vector<DeviceClassSpec> classes = {make_class("a", 10)};
  EXPECT_THROW(PlacementSearch(classes, {}, {}), std::invalid_argument);
  std::vector<hive::ServiceSpec> dup = {
      hive::services::queen_detection_cnn(),
      hive::services::queen_detection_cnn()};
  EXPECT_THROW(PlacementSearch(classes, dup, {}), std::invalid_argument);
  std::vector<hive::ServiceSpec> seven(
      7, hive::services::queen_detection_cnn());
  for (int i = 0; i < 7; ++i) seven[i].name += std::to_string(i);
  EXPECT_THROW(PlacementSearch(classes, seven, {}), std::invalid_argument);
  std::vector<DeviceClassSpec> many(65, make_class("c", 1));
  EXPECT_THROW(PlacementSearch(many, two_services(), {}),
               std::invalid_argument);
}

// Regression (PR 9): OrchestratorOptions silently accepted NaN because
// every `<=` comparison with NaN is false.
TEST(OrchestratorOptions, RejectsNonFiniteValues) {
  core::OrchestratorOptions opt;
  opt.cycle = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(core::ServiceOrchestrator{opt}, std::invalid_argument);
  opt = {};
  opt.slot_uplink_bytes_per_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(core::ServiceOrchestrator{opt}, std::invalid_argument);
  opt = {};
  opt.edge_joule_weight = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(core::ServiceOrchestrator{opt}, std::invalid_argument);
  EXPECT_NO_THROW(core::ServiceOrchestrator{core::OrchestratorOptions{}});
}

// Regression (PR 9): PlacementAdvisor::Options was never validated.
TEST(PlacementAdvisorOptions, RejectsOutOfRangeValues) {
  core::PlacementAdvisor::Options opt;
  opt.max_parallel = 0;
  EXPECT_THROW(core::PlacementAdvisor{opt}, std::invalid_argument);
  opt = {};
  opt.cycle = -300.0;
  EXPECT_THROW(core::PlacementAdvisor{opt}, std::invalid_argument);
  opt = {};
  opt.cycle = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(core::PlacementAdvisor{opt}, std::invalid_argument);
  EXPECT_NO_THROW(core::PlacementAdvisor{core::PlacementAdvisor::Options{}});
}

// ----------------------------------------------------------------- search

TEST(PlacementSearch, SingleClassZeroLossPointMatchesExhaustiveEvaluate) {
  // One homogeneous class, no shedding allowed to win: the frontier's
  // zero-loss point must equal the best of the 2^k edge/cloud
  // assignments scored by ServiceOrchestrator::evaluate directly.
  const int count = 200;
  core::OrchestratorOptions base;
  base.clients = count;
  const auto services = two_services();
  const PlacementSearch search({make_class("uniform", count)}, services,
                               base);
  const auto frontier = search.search();
  expect_pareto(frontier);
  const FleetAssignment* lossless = nullptr;
  for (const auto& p : frontier.points)
    if (p.loss_bytes_per_cycle == 0.0) lossless = &p;
  ASSERT_NE(lossless, nullptr);

  core::ServiceOrchestrator orch(base);
  double best = std::numeric_limits<double>::infinity();
  for (int mask = 0; mask < 4; ++mask) {
    std::vector<core::ServicePlan> plans;
    for (int j = 0; j < 2; ++j)
      plans.push_back({services[static_cast<std::size_t>(j)],
                       (mask >> j) & 1 ? core::Placement::kEdgeCloud
                                       : core::Placement::kEdgeOnly});
    const auto costs = orch.evaluate(plans);
    if (costs.feasible)
      best = std::min(best, count * costs.total_per_client());
  }
  EXPECT_NEAR(lossless->energy_per_cycle, best, 1e-6);
}

TEST(PlacementSearch, NeverWorseThanGreedyOnFuzzedFleets) {
  u::Rng rng(20260808);
  const auto catalog = hive::services::catalog();
  for (int iter = 0; iter < 25; ++iter) {
    const int n_classes = static_cast<int>(rng.uniform_int(1, 4));
    std::vector<DeviceClassSpec> classes;
    for (int c = 0; c < n_classes; ++c) {
      std::string name = "c";
      name += std::to_string(c);
      DeviceClassSpec cls =
          make_class(name, static_cast<int>(rng.uniform_int(0, 300)),
                     rng.uniform(0.1, 1.0), rng.uniform(0.3, 1.0));
      cls.compute_scale = rng.uniform(0.8, 2.0);
      cls.energy_scale = rng.uniform(0.8, 2.0);
      classes.push_back(cls);
    }
    const int n_services = static_cast<int>(rng.uniform_int(1, 3));
    std::vector<hive::ServiceSpec> services(
        catalog.begin(), catalog.begin() + n_services);
    FleetSearchOptions opt;
    opt.beam_width = static_cast<int>(rng.uniform_int(2, 16));
    opt.max_cloud_servers = static_cast<int>(rng.uniform_int(0, 4));
    const PlacementSearch search(classes, services, {}, opt);
    const FleetAssignment greedy = search.greedy();
    if (!greedy.feasible) continue;
    const auto frontier = search.search();
    expect_pareto(frontier);
    // The beam is seeded with the greedy completion, so some frontier
    // point must match-or-beat greedy in BOTH energy and loss.
    bool beaten = false;
    for (const auto& p : frontier.points)
      beaten = beaten ||
               (p.energy_per_cycle <= greedy.energy_per_cycle + 1e-9 &&
                p.loss_bytes_per_cycle <=
                    greedy.loss_bytes_per_cycle + 1e-9);
    EXPECT_TRUE(beaten) << "iter " << iter;
  }
}

TEST(PlacementSearch, DeterministicAcrossThreadCountsAndRuns) {
  std::vector<DeviceClassSpec> classes = {
      make_class("strong", 150, 0.9, 1.0),
      make_class("weak", 80, 0.3, 0.6),
      make_class("solar", 40, 0.15, 0.9)};
  FleetSearchOptions opt;
  opt.max_cloud_servers = 2;
  const PlacementSearch search(classes, two_services(), {}, opt);
  const auto serial = search.search(1);
  expect_pareto(serial);
  expect_identical(serial, search.search(4));
  expect_identical(serial, search.search(0));
  expect_identical(serial, search.search(1));  // repeated run
}

TEST(PlacementSearch, EmptyAndDegenerateFleets) {
  // No classes at all: the only configuration is the empty one.
  const PlacementSearch empty({}, two_services(), {});
  const auto frontier = empty.search();
  ASSERT_EQ(frontier.points.size(), 1u);
  EXPECT_TRUE(frontier.points[0].choice.empty());
  EXPECT_EQ(frontier.points[0].energy_per_cycle, 0.0);
  EXPECT_EQ(frontier.points[0].loss_fraction, 0.0);
  EXPECT_TRUE(frontier.points[0].feasible);
  const auto g = empty.greedy();
  EXPECT_EQ(g.energy_per_cycle, 0.0);
  // Zero-count classes contribute nothing but keep their slots in the
  // choice vector (canonically all-shed).
  const PlacementSearch zeros(
      {make_class("ghost", 0), make_class("real", 50)}, two_services(), {});
  const auto f2 = zeros.search();
  expect_pareto(f2);
  for (const auto& p : f2.points) {
    ASSERT_EQ(p.choice.size(), 4u);
    EXPECT_EQ(p.at(0, 0, 2), Assignment::kShed);
    EXPECT_EQ(p.at(0, 1, 2), Assignment::kShed);
  }
}

TEST(PlacementSearch, SharedServerBudgetCouplesClasses) {
  // Large fleet (past the fig7 crossover, so the cloud is worth fighting
  // for) with a server pool too small for everyone: the beam must do at
  // least as well as the first-come-first-served greedy walk.
  std::vector<DeviceClassSpec> classes = {
      make_class("a", 400), make_class("b", 400, 0.5, 0.8)};
  FleetSearchOptions opt;
  opt.max_cloud_servers = 1;
  const PlacementSearch search(classes, two_services(), {}, opt);
  const auto greedy = search.greedy();
  ASSERT_TRUE(greedy.feasible);
  const auto frontier = search.search();
  expect_pareto(frontier);
  const FleetAssignment* pick = frontier.min_energy(greedy.loss_fraction);
  ASSERT_NE(pick, nullptr);
  EXPECT_LE(pick->energy_per_cycle, greedy.energy_per_cycle + 1e-9);
  for (const auto& p : frontier.points) EXPECT_LE(p.servers_used, 1);
}

TEST(PlacementSearch, OutageRegimeTradesLossForEnergy) {
  // Cloud unavailable and one nearly-flat battery class: the frontier
  // should offer both a lossless keep-alive point and cheaper shedding
  // points, and min_energy() should walk that trade-off.
  std::vector<DeviceClassSpec> classes = {
      make_class("healthy", 100, 0.9), make_class("flat", 100, 0.12)};
  FleetSearchOptions opt;
  opt.cloud_available = false;
  const PlacementSearch search(
      classes, {hive::services::queen_detection_cnn()}, {}, opt);
  const auto frontier = search.search();
  expect_pareto(frontier);
  EXPECT_GE(frontier.points.size(), 2u);
  const FleetAssignment* lossless = frontier.min_energy(0.0);
  const FleetAssignment* tolerant = frontier.min_energy(0.6);
  ASSERT_NE(lossless, nullptr);
  ASSERT_NE(tolerant, nullptr);
  EXPECT_LT(tolerant->energy_per_cycle, lossless->energy_per_cycle);
  EXPECT_GT(tolerant->loss_fraction, 0.0);
  for (const auto& p : frontier.points)
    for (const auto a : p.choice) EXPECT_NE(a, Assignment::kCloud);
}

TEST(PlacementSearch, StatsArePopulated) {
  core::SearchStats stats;
  const PlacementSearch search({make_class("a", 100), make_class("b", 50)},
                               two_services(), {});
  const auto frontier = search.search(0, &stats);
  EXPECT_GT(stats.candidates_expanded, 0);
  EXPECT_GT(stats.evaluations, 0);
  EXPECT_EQ(stats.frontier_size,
            static_cast<int>(frontier.points.size()));
  EXPECT_GE(stats.elapsed_seconds, 0.0);
}

// ------------------------------------------------------- ResilientFleet knob

TEST(ResilientFleet, BeamWithZeroToleranceBitIdenticalToGreedy) {
  fault::FaultPlan plan;
  plan.add({fault::FaultKind::kCloudOutage, 2, 6});
  core::ResiliencePolicy greedy_policy;
  core::ResiliencePolicy beam_policy;
  beam_policy.classes = {make_class("a", 60, 0.5), make_class("b", 40)};
  beam_policy.outage_loss_tolerance = 0.0;  // lossless ⇒ greedy-identical
  const core::FleetParams params = core::FleetParams::paper_default();
  const core::ResilientFleet greedy(params, plan, greedy_policy);
  const core::ResilientFleet beam(params, plan, beam_policy);
  EXPECT_EQ(beam.outage_shed_fraction(), 0.0);
  u::Rng rng_a(7);
  u::Rng rng_b(7);
  const auto pa = greedy.run_point(100, 10, rng_a);
  const auto pb = beam.run_point(100, 10, rng_b);
  EXPECT_EQ(pa.total_energy.mean(), pb.total_energy.mean());
  EXPECT_EQ(pa.shed_client_cycles, pb.shed_client_cycles);
  EXPECT_EQ(pa.bytes_lost, pb.bytes_lost);
}

TEST(ResilientFleet, BeamShedsFlatBatteriesAndSavesEnergy) {
  fault::FaultPlan plan;
  plan.add({fault::FaultKind::kCloudOutage, 0, 7});
  core::ResiliencePolicy beam_policy;
  // Half the fleet sits on a nearly flat battery: keeping its local
  // inference alive through the outage costs scarce joules the search
  // is allowed to save by shedding up to 60% of the data.
  beam_policy.classes = {make_class("healthy", 50, 0.9),
                         make_class("flat", 50, 0.1)};
  beam_policy.outage_loss_tolerance = 0.6;
  const core::FleetParams params = core::FleetParams::paper_default();
  const core::ResilientFleet beam(params, plan, beam_policy);
  EXPECT_GT(beam.outage_shed_fraction(), 0.0);
  EXPECT_LE(beam.outage_shed_fraction(), 0.6);
  const core::ResilientFleet greedy(params, plan, core::ResiliencePolicy{});
  u::Rng rng_a(7);
  u::Rng rng_b(7);
  const auto pg = greedy.run_point(100, 10, rng_a);
  const auto pb = beam.run_point(100, 10, rng_b);
  EXPECT_LT(pb.total_energy.mean(), pg.total_energy.mean());
  EXPECT_GT(pb.shed_client_cycles, 0);
  expect_conserved(pb);
}

TEST(ResilientFleet, PolicyValidatesPlacementFields) {
  const core::FleetParams params = core::FleetParams::paper_default();
  core::ResiliencePolicy policy;
  policy.outage_loss_tolerance = 1.5;
  EXPECT_THROW(core::ResilientFleet(params, fault::FaultPlan::none(), policy),
               std::invalid_argument);
  policy = {};
  policy.search.beam_width = 0;
  EXPECT_THROW(core::ResilientFleet(params, fault::FaultPlan::none(), policy),
               std::invalid_argument);
  policy = {};
  policy.classes = {make_class("bad", -3)};
  EXPECT_THROW(core::ResilientFleet(params, fault::FaultPlan::none(), policy),
               std::invalid_argument);
}

// ------------------------------------------------------------ canonical hash

TEST(CanonicalHash, CoversPlacementPolicyFields) {
  const auto digest = [](const core::ResiliencePolicy& p) {
    core::CanonicalHasher h;
    core::hash_append(h, p);
    return h.digest();
  };
  core::ResiliencePolicy base;
  core::ResiliencePolicy with_class = base;
  with_class.classes = {make_class("a", 10)};
  EXPECT_NE(digest(base), digest(with_class));
  core::ResiliencePolicy tolerant = base;
  tolerant.outage_loss_tolerance = 0.25;
  EXPECT_NE(digest(base), digest(tolerant));
  core::ResiliencePolicy tuned = base;
  tuned.search.beam_width = 7;
  EXPECT_NE(digest(base), digest(tuned));
  EXPECT_EQ(digest(base), digest(core::ResiliencePolicy{}));
}
