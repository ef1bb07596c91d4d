// Plan the orchestration of a whole apiary network: given a number of
// smart beehives and a server capacity, decide edge vs edge+cloud, size
// the server fleet, and show the allocation one server class at a time.
//
//   $ ./apiary_orchestration hives=500 parallel=35 policy=balanced
//
// Keys: hives (default 500), parallel (35), cycle_min (5),
//       service (cnn|svm), policy (fill-first|balanced|round-robin),
//       losses (0|1), report=<path> (write a Markdown deployment report).

#include <cstdio>
#include <string>

#include <fstream>

#include "core/network_sim.hpp"
#include "core/placement.hpp"
#include "core/report.hpp"
#include "util/config.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace beesim;
namespace u = beesim::util;

int main(int argc, char** argv) {
  util::Config config(argc, argv);
  const int hives = static_cast<int>(config.get_int("hives", 500));
  const int parallel = static_cast<int>(config.get_int("parallel", 35));
  const double cycle = config.get_double("cycle_min", 5.0) * u::kMinute;
  const auto service = config.get_string("service", "cnn") == "svm"
                           ? core::ServiceModel::kSvm
                           : core::ServiceModel::kCnn;
  const std::string policy_name =
      config.get_string("policy", "fill-first");
  const core::FillPolicy policy =
      policy_name == "balanced"      ? core::FillPolicy::kBalanced
      : policy_name == "round-robin" ? core::FillPolicy::kRoundRobin
                                     : core::FillPolicy::kFillFirst;
  const bool losses = config.get_bool("losses", false);

  std::printf("apiary orchestration plan\n=========================\n\n");
  std::printf("fleet: %d smart beehives | service: %s | cycle: %.0f min | "
              "server slots: %d clients in parallel | policy: %s%s\n\n",
              hives, device::to_string(service), cycle / u::kMinute,
              parallel, core::to_string(policy),
              losses ? " | losses: saturation penalty on" : "");

  // Placement decision.
  core::PlacementAdvisor::Options options;
  options.service = service;
  options.max_parallel = parallel;
  options.cycle = cycle;
  options.policy = policy;
  if (losses) options.loss = core::LossConfig::only_saturation();
  core::PlacementAdvisor advisor(options);
  const auto verdict = advisor.compare(hives);

  std::printf("per-hive energy per cycle:\n");
  std::printf("  edge-only:   %.1f J (everything on the hive)\n",
              verdict.edge_only_per_client);
  std::printf("  edge+cloud:  %.1f J (%.1f J hive + server share)\n",
              verdict.edge_cloud_per_client,
              core::edge_cycle_energy(core::Placement::kEdgeCloud,
                                      service, cycle));
  std::printf("  -> recommended placement: %s\n\n",
              verdict.edge_cloud_wins ? "EDGE+CLOUD" : "EDGE-ONLY");

  // Server fleet sizing + allocation detail for the edge+cloud variant.
  core::FleetParams fleet = core::FleetParams::paper_default(
      service, parallel, cycle);
  fleet.policy = policy;
  if (losses) fleet.loss = core::LossConfig::only_saturation();
  core::LargeScaleSimulator sim(fleet);
  const auto result = sim.simulate_ideal_cycle(hives);
  core::CompactLayout layout;
  core::allocate_compact_into(hives, sim.effective_server(), policy, layout);

  std::printf("if deployed edge+cloud:\n");
  std::printf("  servers needed: %d (capacity %d hives each)\n",
              result.servers_used, sim.effective_server().capacity());
  std::printf("  active time slots: %d of %d per cycle per server\n",
              result.active_slots,
              sim.effective_server().slots_per_cycle() *
                  result.servers_used);
  std::printf("  total per cycle: %s at the edges + %s in the cloud\n\n",
              util::format_joules(result.edge_energy).c_str(),
              util::format_joules(result.cloud_energy).c_str());

  // One row per server class: servers with the same slot occupancy,
  // each band of equal slots shown as "slots x hives".
  util::AsciiTable table(
      {"Servers", "Hives each", "Slot occupancy (slots x hives)"});
  for (int c = 0; c < layout.class_count; ++c) {
    int hives_each = 0;
    std::string occupancy;
    for (int b = 0; b < layout.band_count[c]; ++b) {
      const int k = layout.band_clients[c][b];
      hives_each += k * layout.band_slots[c][b];
      if (b > 0) occupancy += ", ";
      occupancy += std::to_string(layout.band_slots[c][b]) + " x " +
                   std::to_string(k);
    }
    table.add_row({std::to_string(layout.servers[c]),
                   std::to_string(hives_each), occupancy});
  }
  std::printf("%s", table.render().c_str());

  // Crossover context for this configuration.
  const auto crossover = advisor.first_crossover(10, 4000);
  if (crossover.has_value()) {
    std::printf("\nwith these settings, edge+cloud starts winning at %d "
                "hives", *crossover);
    const auto always = advisor.always_better_from(10, 6000);
    if (always.has_value())
      std::printf(" and wins for every fleet >= %d hives", *always);
    std::printf(".\n");
  } else {
    std::printf("\nwith these settings, edge+cloud never beats edge-only — "
                "raise `parallel` above %d (the viability tipping point)"
                " or expect to keep services on the hives.\n",
                core::PlacementAdvisor::min_viable_parallel(service, cycle));
  }

  const std::string report_path = config.get_string("report", "");
  if (!report_path.empty()) {
    core::ReportOptions report;
    report.clients = hives;
    report.max_parallel = parallel;
    report.cycle = cycle;
    report.service = service;
    report.policy = policy;
    std::ofstream out(report_path);
    out << core::markdown_deployment_report(report);
    std::printf("\ndeployment report written to %s\n",
                report_path.c_str());
  }
  return 0;
}
