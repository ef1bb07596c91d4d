// The optimizing placement orchestrator on the Fig 7 crossover regime
// (docs/PLACEMENT.md): a heterogeneous three-class apiary around the
// paper's 630-client maximum-advantage fleet at 35 clients per slot.
//
// Part 1 searches the energy-vs-loss Pareto frontier over the class mix
// and checks the beam matches or beats the per-service greedy baseline at
// the greedy's own loss level, plus the determinism contract (the
// frontier must be byte-identical across thread counts and repeated
// runs). Part 2 replays a random cloud-outage FaultPlan through
// ResilientFleet twice — optimizer=greedy vs optimizer=beam — and
// requires the beam's total energy to match or beat greedy's. Any
// violated check exits non-zero, so the optimizer claims are
// tier-1-guarded via the bench_smoke_placement ctest.
//
// Usage: placement_search [fleet=630] [cycles=40] [servers=1]
//                         [tolerance=0.35] [beam=32] [service=cnn|svm]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/placement_search.hpp"
#include "core/resilience.hpp"
#include "fault/fault.hpp"
#include "hive/services.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace beesim;
using core::Assignment;
using core::DeviceClassSpec;
using core::FleetAssignment;
using core::FleetSearchOptions;
using core::ParetoFrontier;
using core::PlacementSearch;

namespace {

// The heterogeneous apiary: the paper's single RPi 3B+ class split into
// three device generations at different battery/link states.
std::vector<DeviceClassSpec> apiary(int fleet) {
  DeviceClassSpec rooftop;
  rooftop.name = "rooftop";
  rooftop.count = fleet / 2;
  rooftop.battery_soc = 0.9;
  DeviceClassSpec meadow;
  meadow.name = "meadow";
  meadow.count = fleet / 3;
  meadow.compute_scale = 1.2;
  meadow.battery_soc = 0.5;
  meadow.link_quality = 0.8;
  DeviceClassSpec remote;
  remote.name = "remote";
  remote.count = fleet - rooftop.count - meadow.count;
  remote.energy_scale = 1.3;
  remote.battery_soc = 0.2;
  remote.link_quality = 0.5;
  return {rooftop, meadow, remote};
}

// Bit-pattern serialization of a frontier (%a prints the exact double),
// so a string compare is a byte-identity compare.
std::string serialize(const ParetoFrontier& frontier) {
  std::string out;
  char buf[128];
  for (const auto& p : frontier.points) {
    std::snprintf(buf, sizeof(buf), "%s %a %a %d\n",
                  p.hash.to_string().c_str(), p.energy_per_cycle,
                  p.loss_bytes_per_cycle, p.servers_used);
    out += buf;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const int fleet = static_cast<int>(args.config().get_int("fleet", 630));
  const int cycles = static_cast<int>(args.config().get_int("cycles", 40));
  const int servers = static_cast<int>(args.config().get_int("servers", 1));
  const double tolerance = args.config().get_double("tolerance", 0.35);
  const int beam_width = static_cast<int>(args.config().get_int("beam", 32));
  const core::ServiceModel service =
      args.config().get_string("service", "cnn") == "svm"
          ? core::ServiceModel::kSvm
          : core::ServiceModel::kCnn;

  bench::banner("Placement", "beam/DP search vs greedy on the Fig 7 "
                             "crossover fleet");
  int fail = 0;

  // ---- Part 1: the Pareto frontier over the heterogeneous class mix.
  const std::vector<DeviceClassSpec> classes = apiary(fleet);
  const std::vector<hive::ServiceSpec> services = {
      service == core::ServiceModel::kCnn
          ? hive::services::queen_detection_cnn()
          : hive::services::queen_detection_svm(),
      hive::services::pollen_detection()};
  core::OrchestratorOptions base;
  base.max_parallel = 35;  // the Fig 7b panel
  FleetSearchOptions opts;
  opts.beam_width = beam_width;
  opts.max_cloud_servers = servers;
  const PlacementSearch search(classes, services, base, opts);

  core::SearchStats stats;
  const ParetoFrontier frontier = search.search(0, &stats);
  const FleetAssignment greedy = search.greedy();

  std::printf("\n--- Pareto frontier: %d hives in %zu classes, %zu "
              "services, %d cloud server(s) ---\n\n",
              fleet, classes.size(), services.size(), servers);
  util::AsciiTable table(
      {"J/cycle", "Loss %", "Servers", "Assignment (class: svc->where)"});
  for (const auto& p : frontier.points) {
    std::string assign;
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (c > 0) assign += "  ";
      assign += classes[c].name + ":";
      for (std::size_t s = 0; s < services.size(); ++s) {
        assign += ' ';
        assign += core::to_string(p.at(static_cast<int>(c),
                                       static_cast<int>(s),
                                       static_cast<int>(services.size())));
      }
    }
    table.add_row({util::AsciiTable::num(p.energy_per_cycle, 1),
                   util::AsciiTable::num(100.0 * p.loss_fraction, 1),
                   std::to_string(p.servers_used), assign});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nsearch stats: %lld expanded, %lld pruned, %lld exact "
              "evaluations, frontier %d, %.3f ms\n",
              static_cast<long long>(stats.candidates_expanded),
              static_cast<long long>(stats.candidates_pruned),
              static_cast<long long>(stats.evaluations),
              stats.frontier_size, 1e3 * stats.elapsed_seconds);

  const FleetAssignment* match = frontier.min_energy(greedy.loss_fraction);
  std::printf("\ngreedy baseline: %.1f J/cycle at %.1f%% loss "
              "(%d server(s))\n",
              greedy.energy_per_cycle, 100.0 * greedy.loss_fraction,
              greedy.servers_used);
  if (greedy.feasible && match != nullptr &&
      match->energy_per_cycle <= greedy.energy_per_cycle + 1e-9) {
    std::printf("beam at the same loss level: %.1f J/cycle "
                "(%.2f%% below greedy)\n",
                match->energy_per_cycle,
                100.0 * (greedy.energy_per_cycle - match->energy_per_cycle) /
                    greedy.energy_per_cycle);
    std::printf("placement beam-vs-greedy ok\n");
  } else {
    std::printf("placement beam-vs-greedy FAILED: no frontier point "
                "matches the greedy completion\n");
    fail = 1;
  }

  // Determinism contract: byte-identical frontier across thread counts
  // and repeated runs.
  const std::string t1 = serialize(search.search(1));
  if (t1 == serialize(search.search(4)) && t1 == serialize(frontier) &&
      t1 == serialize(search.search(1))) {
    std::printf("placement determinism ok (threads=1/4, repeated runs)\n");
  } else {
    std::printf("placement determinism FAILED: frontier depends on "
                "thread count or run order\n");
    fail = 1;
  }

  // ---- Part 2: ResilientFleet under a non-empty cloud-outage FaultPlan.
  const fault::FaultPlan plan = fault::FaultPlan::random_outages(
      42, cycles, 0.3, 4, fault::FaultKind::kCloudOutage);
  const core::FleetParams params =
      core::FleetParams::paper_default(service, 35);
  core::ResiliencePolicy greedy_policy;  // optimizer=greedy (the default)
  core::ResiliencePolicy beam_policy;
  beam_policy.optimizer = core::PlacementOptimizer::kBeam;
  beam_policy.classes = classes;
  beam_policy.outage_loss_tolerance = tolerance;
  beam_policy.search.beam_width = beam_width;
  const core::ResilientFleet greedy_fleet(params, plan, greedy_policy,
                                          service);
  const core::ResilientFleet beam_fleet(params, plan, beam_policy, service);

  util::Rng rng_greedy(7);
  util::Rng rng_beam(7);
  const core::ResiliencePoint pg =
      greedy_fleet.run_point(fleet, cycles, rng_greedy);
  const core::ResiliencePoint pb =
      beam_fleet.run_point(fleet, cycles, rng_beam);

  std::printf("\n--- Fault plan: %zu cloud-outage windows over %d cycles, "
              "%d clients ---\n\n",
              plan.windows().size(), cycles, fleet);
  std::printf("  optimizer=greedy: %10.1f J/cycle total, "
              "delivery %5.1f%%, shed %lld client-cycles\n",
              pg.total_energy.mean(), 100.0 * pg.delivery_fraction(),
              static_cast<long long>(pg.shed_client_cycles));
  std::printf("  optimizer=beam:   %10.1f J/cycle total, "
              "delivery %5.1f%%, shed %lld client-cycles "
              "(shed fraction %.2f)\n",
              pb.total_energy.mean(), 100.0 * pb.delivery_fraction(),
              static_cast<long long>(pb.shed_client_cycles),
              beam_fleet.outage_shed_fraction());
  const double saving_pct =
      pg.total_energy.mean() > 0.0
          ? 100.0 * (pg.total_energy.mean() - pb.total_energy.mean()) /
                pg.total_energy.mean()
          : 0.0;
  // One parseable headline line: both energies and the saving.
  std::printf("\nplacement headline: greedy_j_per_cycle=%.1f "
              "beam_j_per_cycle=%.1f saving_pct=%.2f\n",
              pg.total_energy.mean(), pb.total_energy.mean(), saving_pct);
  if (pb.total_energy.mean() <= pg.total_energy.mean() + 1e-6) {
    std::printf("placement outage beam<=greedy ok\n");
  } else {
    std::printf("placement outage beam<=greedy FAILED\n");
    fail = 1;
  }

  return fail;
}
