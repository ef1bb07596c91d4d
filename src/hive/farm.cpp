#include "hive/farm.hpp"

#include <stdexcept>

#include "sim/engine.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace beesim::hive {

std::vector<HiveRun> run_hives_parallel(
    const std::vector<SmartBeehive::Config>& configs, sim::SimTime horizon,
    unsigned threads, sim::TraceRecorder* trace0) {
  if (configs.empty())
    throw std::invalid_argument("run_hives_parallel: no hive configs");
  if (horizon < 0.0)
    throw std::invalid_argument("run_hives_parallel: negative horizon");
  std::vector<HiveRun> runs(configs.size());
  util::parallel_for(
      configs.size(),
      [&](std::size_t i) {
        sim::Engine engine;
        SmartBeehive beehive(engine, configs[i],
                             i == 0 ? trace0 : nullptr);
        engine.run_until(horizon);
        beehive.settle();
        runs[i].stats = beehive.stats();
        runs[i].events_executed = engine.executed();
      },
      threads);
  return runs;
}

std::vector<SmartBeehive::Config> farm_configs(
    const SmartBeehive::Config& hive_template, int hive_count) {
  if (hive_count < 1)
    throw std::invalid_argument("farm_configs: hive_count < 1");
  std::vector<SmartBeehive::Config> configs;
  configs.reserve(static_cast<std::size_t>(hive_count));
  for (int i = 0; i < hive_count; ++i) {
    SmartBeehive::Config cfg = hive_template;
    // Hive 0 keeps the template seed so its run (and trace) is
    // byte-identical to the plain single-hive bench; siblings draw their
    // seed from the addressed stream (seed, i) — stable no matter how
    // many hives exist or which thread simulates them.
    if (i > 0) cfg.seed = util::Rng::for_stream(hive_template.seed,
                                                static_cast<std::uint64_t>(i))();
    configs.push_back(cfg);
  }
  return configs;
}

FarmStats aggregate_farm(const std::vector<HiveRun>& runs) {
  FarmStats farm;
  for (const auto& run : runs) {
    farm.wakeups_attempted += run.stats.wakeups_attempted;
    farm.wakeups_completed += run.stats.wakeups_completed;
    farm.wakeups_skipped += run.stats.wakeups_skipped;
    farm.consumed += run.stats.consumed;
    farm.harvested += run.stats.harvested;
    farm.total_outage += run.stats.outage_time;
    if (run.stats.outage_time > 0.0) ++farm.hives_with_outage;
    farm.events_executed += run.events_executed;
  }
  return farm;
}

}  // namespace beesim::hive
