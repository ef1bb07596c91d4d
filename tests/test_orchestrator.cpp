#include <gtest/gtest.h>

#include <algorithm>

#include "core/network_sim.hpp"
#include "device/calibration.hpp"
#include "core/orchestrator.hpp"
#include "core/scenario.hpp"
#include "hive/services.hpp"

namespace core = beesim::core;
namespace svc = beesim::hive::services;
using core::OrchestratorOptions;
using core::Placement;
using core::ServiceOrchestrator;
using core::ServicePlan;

namespace {

OrchestratorOptions options(int clients, int parallel) {
  OrchestratorOptions opt;
  opt.clients = clients;
  opt.max_parallel = parallel;
  return opt;
}

}  // namespace

// --------------------------------------------- Reduction to the paper model

TEST(Orchestrator, EdgeQueenDetectionReducesToTableOne) {
  ServiceOrchestrator orch(options(100, 10));
  const auto costs = orch.evaluate(
      {{svc::queen_detection_cnn(), Placement::kEdgeOnly}});
  ASSERT_TRUE(costs.feasible);
  EXPECT_NEAR(costs.edge_per_cycle, 367.5, 0.15);  // Table I total
  EXPECT_DOUBLE_EQ(costs.cloud_per_client, 0.0);
  EXPECT_EQ(costs.servers_used, 0);
  const auto svm = orch.evaluate(
      {{svc::queen_detection_svm(), Placement::kEdgeOnly}});
  EXPECT_NEAR(svm.edge_per_cycle, 366.3, 0.15);
}

TEST(Orchestrator, CloudQueenDetectionReducesToTableTwoAndFigSix) {
  ServiceOrchestrator orch(options(180, 10));  // exactly one full server
  const auto costs = orch.evaluate(
      {{svc::queen_detection_cnn(), Placement::kEdgeCloud}});
  ASSERT_TRUE(costs.feasible);
  EXPECT_NEAR(costs.edge_per_cycle, 322.0, 0.15);  // Table II edge total
  EXPECT_NEAR(costs.cloud_per_client, 117.0, 1.5);  // Fig 6 floor
  EXPECT_EQ(costs.servers_used, 1);
}

TEST(Orchestrator, AgreesWithLargeScaleSimulatorAcrossFleetSizes) {
  for (int clients : {20, 90, 180, 350}) {
    ServiceOrchestrator orch(options(clients, 10));
    const auto costs = orch.evaluate(
        {{svc::queen_detection_cnn(), Placement::kEdgeCloud}});
    core::LargeScaleSimulator sim(core::FleetParams::paper_default());
    const auto r = sim.simulate_ideal_cycle(clients);
    EXPECT_NEAR(costs.cloud_per_client, r.cloud_per_client(), 0.5)
        << "clients=" << clients;
    EXPECT_EQ(costs.servers_used, r.servers_used);
  }
}

TEST(Orchestrator, EvaluateMatchesGoldenValuesPerFillPolicy) {
  // Recorded when evaluate() priced the per-slot vector allocation server
  // by server; summing each layout class's per-server term once per
  // server must reproduce them bit for bit. At 397 and 2000 clients the
  // spread policies fill three server classes.
  struct Golden {
    core::FillPolicy policy;
    int clients;
    int servers_used;
    double cloud_per_client;
  };
  using core::FillPolicy;
  const Golden golden[] = {
      {FillPolicy::kFillFirst, 100, 1, 0x1.60e113863ed14p+7},
      {FillPolicy::kFillFirst, 397, 3, 0x1.202403f9867e7p+7},
      {FillPolicy::kFillFirst, 2000, 12, 0x1.ebae059411f2cp+6},
      {FillPolicy::kBalanced, 100, 1, 0x1.a51a9b4605626p+7},
      {FillPolicy::kBalanced, 397, 3, 0x1.3e36ed4652bd2p+7},
      {FillPolicy::kBalanced, 2000, 12, 0x1.f95320ba6cdcap+6},
      {FillPolicy::kRoundRobin, 100, 1, 0x1.a51a9b4605626p+7},
      {FillPolicy::kRoundRobin, 397, 3, 0x1.3e36ed4652bd2p+7},
      {FillPolicy::kRoundRobin, 2000, 12, 0x1.f95320ba6cdcap+6},
  };
  for (const auto& g : golden) {
    OrchestratorOptions opt = options(g.clients, 10);
    opt.policy = g.policy;
    const auto costs = ServiceOrchestrator(opt).evaluate(
        {{svc::queen_detection_cnn(), Placement::kEdgeCloud}});
    ASSERT_TRUE(costs.feasible);
    EXPECT_EQ(costs.servers_used, g.servers_used)
        << core::to_string(g.policy) << " clients=" << g.clients;
    EXPECT_EQ(costs.cloud_per_client, g.cloud_per_client)
        << core::to_string(g.policy) << " clients=" << g.clients;
  }
  for (int clients : {397, 2000}) {
    core::CompactLayout layout;
    core::allocate_compact_into(
        clients, core::ServerSpec::cloud_server(core::ServiceModel::kCnn, 10),
        FillPolicy::kBalanced, layout);
    EXPECT_EQ(layout.class_count, 3) << "clients=" << clients;
  }
}

// -------------------------------------------------------------- Evaluation

TEST(Orchestrator, MultipleEdgeServicesShareOneResultsUpload) {
  ServiceOrchestrator orch(options(100, 10));
  const auto one = orch.evaluate(
      {{svc::queen_detection_cnn(), Placement::kEdgeOnly}});
  // bee_counting would overflow the 5-minute cycle on the Pi (the model
  // says so honestly — see InfeasibleWhenRoutineOverflowsCycle); the
  // hourly swarm predictor fits.
  const auto two = orch.evaluate(
      {{svc::queen_detection_cnn(), Placement::kEdgeOnly},
       {svc::swarm_prediction(), Placement::kEdgeOnly}});
  ASSERT_TRUE(two.feasible);
  // Adding the second service costs its amortized execution minus the
  // sleep it displaces, NOT another results transfer.
  const auto swarm = svc::swarm_prediction();
  const double period = static_cast<double>(swarm.period_cycles);
  const double expected_delta =
      swarm.edge_energy() / period -
      (swarm.edge_time / period) * beesim::device::cal::kEdgeSleepPower;
  EXPECT_NEAR(two.edge_per_cycle - one.edge_per_cycle, expected_delta,
              1e-6);
}

TEST(Orchestrator, HeavyEdgeServicesDoNotFitTogether) {
  ServiceOrchestrator orch(options(100, 10));
  const auto costs = orch.evaluate(
      {{svc::queen_detection_cnn(), Placement::kEdgeOnly},
       {svc::bee_counting(), Placement::kEdgeOnly}});
  EXPECT_FALSE(costs.feasible);  // ~4 min of counting + the rest > 5 min
  // Shipping the counter to the cloud makes the plan feasible again.
  const auto offloaded = orch.evaluate(
      {{svc::queen_detection_cnn(), Placement::kEdgeOnly},
       {svc::bee_counting(), Placement::kEdgeCloud}});
  EXPECT_TRUE(offloaded.feasible);
}

TEST(Orchestrator, PeriodicServiceAmortizesEverywhere) {
  ServiceOrchestrator orch(options(100, 10));
  const auto base = orch.evaluate({});
  const auto with = orch.evaluate(
      {{svc::swarm_prediction(), Placement::kEdgeCloud}});
  ASSERT_TRUE(with.feasible);
  // Hourly service on 5-minute cycles: the upload adds 1/12 of its bytes
  // per cycle — a tiny edge delta.
  EXPECT_GT(with.edge_per_cycle, base.edge_per_cycle);
  EXPECT_LT(with.edge_per_cycle - base.edge_per_cycle, 1.0);
}

TEST(Orchestrator, InfeasibleWhenRoutineOverflowsCycle) {
  OrchestratorOptions opt = options(100, 10);
  opt.cycle = 120.0;  // pollen detection alone takes ~8 min on the Pi
  ServiceOrchestrator orch(opt);
  const auto costs = orch.evaluate(
      {{svc::pollen_detection(), Placement::kEdgeOnly}});
  EXPECT_FALSE(costs.feasible);
}

TEST(Orchestrator, RejectsDuplicateServices) {
  ServiceOrchestrator orch(options(100, 10));
  EXPECT_THROW(orch.evaluate(
                   {{svc::bee_counting(), Placement::kEdgeOnly},
                    {svc::bee_counting(), Placement::kEdgeCloud}}),
               std::invalid_argument);
}

TEST(Orchestrator, RejectsBadOptions) {
  OrchestratorOptions opt;
  opt.clients = 0;
  EXPECT_THROW(ServiceOrchestrator{opt}, std::invalid_argument);
  opt = {};
  opt.edge_joule_weight = 0.0;
  EXPECT_THROW(ServiceOrchestrator{opt}, std::invalid_argument);
}

// ------------------------------------------------------------ Optimization

TEST(Orchestrator, OptimizeBeatsOrMatchesEveryFixedAssignment) {
  ServiceOrchestrator orch(options(400, 35));
  const auto catalog = std::vector<beesim::hive::ServiceSpec>{
      svc::queen_detection_cnn(), svc::bee_counting(),
      svc::swarm_prediction()};
  const auto best = orch.optimize(catalog);
  // Compare against all-edge and all-cloud baselines.
  std::vector<ServicePlan> all_edge;
  std::vector<ServicePlan> all_cloud;
  for (const auto& s : catalog) {
    all_edge.push_back({s, Placement::kEdgeOnly});
    all_cloud.push_back({s, Placement::kEdgeCloud});
  }
  const auto edge_costs = orch.evaluate(all_edge);
  const auto cloud_costs = orch.evaluate(all_cloud);
  if (edge_costs.feasible) {
    EXPECT_LE(best.objective,
              edge_costs.edge_per_cycle + edge_costs.cloud_per_client +
                  1e-9);
  }
  if (cloud_costs.feasible) {
    EXPECT_LE(best.objective,
              cloud_costs.edge_per_cycle + cloud_costs.cloud_per_client +
                  1e-9);
  }
  EXPECT_EQ(best.plans.size(), catalog.size());
}

TEST(Orchestrator, SmallFleetKeepsQueenDetectionAtTheEdge) {
  ServiceOrchestrator orch(options(20, 10));
  const auto best = orch.optimize({svc::queen_detection_cnn()});
  EXPECT_EQ(best.plans.front().placement, Placement::kEdgeOnly);
}

TEST(Orchestrator, HeavyImageServicePrefersTheCloud) {
  // Pollen detection costs ~8 minutes of Pi time but only ~75 kB of
  // upload; even a modest fleet should ship it to the server.
  ServiceOrchestrator orch(options(300, 35));
  const auto best = orch.optimize({svc::pollen_detection()});
  EXPECT_EQ(best.plans.front().placement, Placement::kEdgeCloud);
}

TEST(Orchestrator, EdgeJouleWeightPushesServicesOffTheHive) {
  OrchestratorOptions cheap_edge = options(100, 10);
  OrchestratorOptions scarce_edge = options(100, 10);
  scarce_edge.edge_joule_weight = 50.0;  // solar joules are precious
  const auto catalog = std::vector<beesim::hive::ServiceSpec>{
      svc::queen_detection_cnn(), svc::bee_counting()};
  const auto neutral = ServiceOrchestrator(cheap_edge).optimize(catalog);
  const auto biased = ServiceOrchestrator(scarce_edge).optimize(catalog);
  auto cloud_count = [](const ServiceOrchestrator::Result& r) {
    return std::count_if(r.plans.begin(), r.plans.end(),
                         [](const ServicePlan& p) {
                           return p.placement == Placement::kEdgeCloud;
                         });
  };
  EXPECT_GE(cloud_count(biased), cloud_count(neutral));
  EXPECT_EQ(cloud_count(biased), 2);
  EXPECT_LE(biased.costs.edge_per_cycle, neutral.costs.edge_per_cycle);
}

TEST(Orchestrator, BreakevenMatchesFigSevenForQueenDetection) {
  // The single-service break-even must land near the Fig 7 crossover
  // (~406-408 at 35 clients per slot).
  ServiceOrchestrator orch(options(100, 35));
  const auto breakeven =
      orch.cloud_breakeven(svc::queen_detection_cnn(), 100, 1000);
  ASSERT_TRUE(breakeven.has_value());
  EXPECT_NEAR(*breakeven, 406, 15);
}

TEST(Orchestrator, OptimizeRejectsDegenerateCatalogs) {
  ServiceOrchestrator orch(options(100, 10));
  EXPECT_THROW(orch.optimize({}), std::invalid_argument);
}

// ------------------------------------------------- Degradation (fault layer)

TEST(Orchestrator, DegradeToEdgeMovesCloudServicesHome) {
  ServiceOrchestrator orch(options(100, 10));
  const auto result = orch.degrade_to_edge(
      {{svc::queen_detection_cnn(), Placement::kEdgeCloud},
       {svc::swarm_prediction(), Placement::kEdgeOnly}});
  EXPECT_EQ(result.services_moved, 1);
  EXPECT_TRUE(result.shed.empty());
  ASSERT_TRUE(result.costs.feasible);
  for (const auto& plan : result.plans)
    EXPECT_EQ(plan.placement, Placement::kEdgeOnly);
  EXPECT_DOUBLE_EQ(result.costs.cloud_per_client, 0.0);
  EXPECT_EQ(result.costs.servers_used, 0);
}

TEST(Orchestrator, DegradeToEdgeShedsWhatTheEdgeCannotHost) {
  // Pollen detection needs ~8 minutes of Pi time per invocation; moved
  // home during an outage it overflows the 5-minute cycle and must be
  // shed, while the native-edge queen detection keeps running.
  ServiceOrchestrator orch(options(300, 35));
  const auto result = orch.degrade_to_edge(
      {{svc::queen_detection_cnn(), Placement::kEdgeOnly},
       {svc::pollen_detection(), Placement::kEdgeCloud}});
  ASSERT_TRUE(result.costs.feasible);
  ASSERT_EQ(result.shed.size(), 1u);
  EXPECT_EQ(result.shed.front().name, "pollen_detection");
  EXPECT_EQ(result.services_moved, 0);
  EXPECT_EQ(result.plans.size(), 1u);
  EXPECT_EQ(result.plans.front().service.name, "queen_detection_cnn");
}

TEST(Orchestrator, DegradeToEdgeNeverShedsNativeEdgeServices) {
  // A catalog whose *edge-native* part is already infeasible cannot be
  // rescued by shedding moved services — the failure must be loud.
  ServiceOrchestrator orch(options(100, 10));
  EXPECT_THROW(
      orch.degrade_to_edge({{svc::pollen_detection(), Placement::kEdgeOnly}}),
      std::runtime_error);
}
