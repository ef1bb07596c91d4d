// Microbench for the columnar-fleet tentpole (docs/CHECKPOINT.md), in
// three parts:
//
//   1. SoA vs AoS sweep throughput. The columnar advance path (stack
//      CompactLayout, StatColumns accumulators) races a frozen replica of
//      the pre-columnar hot loop — per cycle the layout copied into heap
//      server classes (a vector of classes, each with a vector of bands)
//      and folded into an array of per-point accumulator structs. The
//      replica lives in this translation unit on purpose: it must stay
//      what the old code was, not drift with the library. Both paths
//      must land bit-identically on the same sweep results (checked;
//      exits non-zero otherwise).
//
//   2. Sweep checkpoint roundtrip: save -> restore -> save of the part-1
//      campaign must be byte-identical on disk (checked).
//
//   3. Million-hive farm snapshot: FarmColumns save and restore are each
//      timed against the 250 ms budget the resumable-fleet story quotes.
//
// With require=1 the speedup (>= 1.3x) and snapshot budgets become hard
// failures — scripts/check.sh runs the smoke sizes without it; the
// acceptance run uses hives=1000000 require=1.
//
// Usage: checkpoint_bench [hives=1000000] [cycles=2000] [seed=42]
//                         [parallel=10] [dir=/tmp] [require=0|1]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/allocator.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet_columns.hpp"
#include "core/network_sim.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace beesim;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Frozen AoS replica of the pre-columnar hot loop -------------------

/// Per-point accumulators as one struct (array-of-structs form) — what
/// sweep() kept per point before FleetColumns.
struct AosPoint {
  int initial_clients = 0;
  int cycles = 0;
  int servers_used = 0;
  util::RunningStats lost_clients;
  util::RunningStats active_slots;
  util::RunningStats edge_energy;
  util::RunningStats cloud_energy;
  util::RunningStats total_energy;
};

/// One server class of the heap form the old loop built every cycle: a
/// vector of classes, each with a vector of bands in slot order.
struct HeapClass {
  struct Band {
    int clients_per_slot = 0;
    int slots = 0;
  };
  std::int64_t servers = 0;
  std::vector<Band> bands;
};

/// Band-for-band replica of LargeScaleSimulator::server_energy for one
/// heap class (metrics elided — pure arithmetic).
util::Joules class_energy(const core::ServerSpec& server,
                          const core::LossConfig& loss,
                          const HeapClass& cls) {
  util::Seconds active_time = 0.0;
  util::Joules active_energy = 0.0;
  for (const auto& band : cls.bands) {
    const int k = band.clients_per_slot;
    if (k <= 0 || band.slots <= 0) continue;
    const auto slots = static_cast<double>(band.slots);
    active_time += slots * server.slot_duration(k);
    active_energy += slots * (server.slot_active_energy(k) *
                              loss.saturation_factor(k, server.max_parallel));
  }
  return server.idle_power * (server.cycle - active_time) + active_energy;
}

/// The old per-cycle body: heap server classes per cycle, struct
/// accumulators per point.
void aos_cycle(const core::FleetParams& params,
               const core::ServerSpec& server, int clients, util::Rng& rng,
               AosPoint& point) {
  const int lost = params.loss.draw_lost_clients(clients, rng);
  const int surviving = clients - lost;
  const double edge =
      static_cast<double>(surviving) * params.client.cycle_energy() +
      static_cast<double>(lost) * params.client.sleep_cycle_energy();
  core::CompactLayout layout;
  core::allocate_compact_into(surviving, server, params.policy, layout);
  std::vector<HeapClass> classes;
  classes.reserve(static_cast<std::size_t>(layout.class_count));
  for (int c = 0; c < layout.class_count; ++c) {
    HeapClass& cls = classes.emplace_back();
    cls.servers = layout.servers[c];
    for (int b = 0; b < layout.band_count[c]; ++b)
      cls.bands.push_back({layout.band_clients[c][b], layout.band_slots[c][b]});
  }
  double cloud = 0.0;
  std::int64_t servers_used = 0;
  std::int64_t active_slots = 0;
  for (const auto& cls : classes) {
    cloud += static_cast<double>(cls.servers) *
             class_energy(server, params.loss, cls);
    int active = 0;
    for (const auto& band : cls.bands)
      if (band.clients_per_slot > 0) active += band.slots;
    servers_used += cls.servers;
    active_slots += cls.servers * active;
  }
  point.servers_used =
      std::max(point.servers_used, static_cast<int>(servers_used));
  point.lost_clients.add(static_cast<double>(lost));
  point.active_slots.add(static_cast<double>(active_slots));
  point.edge_energy.add(edge);
  point.cloud_energy.add(cloud);
  point.total_energy.add(edge + cloud);
}

bool same_stats(const util::RunningStats& a, const util::RunningStats& b) {
  const auto ra = a.raw();
  const auto rb = b.raw();
  return ra.n == rb.n && ra.mean == rb.mean && ra.m2 == rb.m2 &&
         ra.sum == rb.sum && ra.min == rb.min && ra.max == rb.max;
}

bool read_file(const std::string& path, std::vector<char>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const int hives =
      static_cast<int>(args.config().get_int("hives", 1000000));
  const int cycles = static_cast<int>(args.config().get_int("cycles", 2000));
  const auto seed =
      static_cast<std::uint64_t>(args.config().get_int("seed", 42));
  const int parallel =
      static_cast<int>(args.config().get_int("parallel", 10));
  const std::string dir = args.config().get_string("dir", "/tmp");
  const bool require = args.config().get_bool("require", false);
  if (hives < 1 || cycles < 1) {
    std::fprintf(stderr, "error: need hives >= 1, cycles >= 1\n");
    return 2;
  }

  bench::banner("Checkpoint", "columnar fleet state: SoA speedup and "
                              "snapshot latency");

  core::FleetParams fleet =
      core::FleetParams::paper_default(core::ServiceModel::kCnn, parallel);
  fleet.loss = core::LossConfig::all();
  const core::LargeScaleSimulator sim(fleet);
  // Four fleet sizes topping out at `hives`, quartered cycle budgets so
  // both paths do identical, non-trivial per-point work.
  const std::vector<int> counts = {hives / 8 + 1, hives / 4 + 1,
                                   hives / 2 + 1, hives};

  // --- Part 1: AoS replica vs columnar advance -------------------------
  std::vector<AosPoint> aos(counts.size());
  const auto aos_start = Clock::now();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    util::Rng rng = util::Rng::for_stream(
        seed, static_cast<std::uint64_t>(counts[i]));
    aos[i].initial_clients = counts[i];
    aos[i].cycles = cycles;
    for (int c = 0; c < cycles; ++c)
      aos_cycle(fleet, sim.effective_server(), counts[i], rng, aos[i]);
  }
  const double aos_time = seconds_since(aos_start);

  core::FleetColumns columns = core::FleetColumns::start(counts, seed,
                                                         cycles);
  const auto soa_start = Clock::now();
  sim.advance(columns, 0, 1);
  const double soa_time = seconds_since(soa_start);

  bool parity = columns.complete();
  const std::vector<core::SweepPoint> soa_points = columns.points();
  for (std::size_t i = 0; parity && i < counts.size(); ++i) {
    const auto& s = soa_points[i];
    const auto& a = aos[i];
    parity = s.initial_clients == a.initial_clients &&
             s.servers_used == a.servers_used &&
             same_stats(s.lost_clients, a.lost_clients) &&
             same_stats(s.active_slots, a.active_slots) &&
             same_stats(s.edge_energy, a.edge_energy) &&
             same_stats(s.cloud_energy, a.cloud_energy) &&
             same_stats(s.total_energy, a.total_energy);
  }
  if (!parity) {
    std::fprintf(stderr, "FAILED: AoS replica and columnar advance "
                         "diverged — the speedup comparison is void\n");
    return 1;
  }
  const double speedup = soa_time > 0.0 ? aos_time / soa_time : 0.0;
  const double cycle_count =
      static_cast<double>(counts.size()) * static_cast<double>(cycles);
  std::printf("\nLossy sweep, %zu points x %d cycles, top fleet %d "
              "hives:\n", counts.size(), cycles, hives);
  std::printf("  AoS (heap server classes):    %8.3f s  (%.0f cycles/s)\n",
              aos_time, aos_time > 0.0 ? cycle_count / aos_time : 0.0);
  std::printf("  SoA (columnar advance):       %8.3f s  (%.0f cycles/s)\n",
              soa_time, soa_time > 0.0 ? cycle_count / soa_time : 0.0);
  std::printf("  speedup: %.2fx (target >= 1.30x)  [results bit-identical]\n",
              speedup);

  // --- Part 2: sweep checkpoint roundtrip ------------------------------
  const core::Hash128 hash = core::canonical_hash(sim.params());
  const std::string sweep_path = dir + "/checkpoint_bench_sweep.ck";
  const auto save1_start = Clock::now();
  core::save_checkpoint(sweep_path, columns, hash);
  const double save1_time = seconds_since(save1_start);
  const auto load1_start = Clock::now();
  const core::FleetColumns restored =
      core::load_fleet_checkpoint(sweep_path, hash);
  const double load1_time = seconds_since(load1_start);
  const std::string sweep_path2 = sweep_path + "2";
  core::save_checkpoint(sweep_path2, restored, hash);
  std::vector<char> image1, image2;
  const bool bytes_ok = read_file(sweep_path, image1) &&
                        read_file(sweep_path2, image2) && image1 == image2;
  std::printf("\nSweep checkpoint (%zu points, %zu bytes): save %.3f ms, "
              "restore %.3f ms, save->restore->save %s\n",
              columns.size(), image1.size(), save1_time * 1e3,
              load1_time * 1e3,
              bytes_ok ? "byte-identical" : "DIVERGED");
  std::remove(sweep_path.c_str());
  std::remove(sweep_path2.c_str());
  if (!bytes_ok) {
    std::fprintf(stderr, "FAILED: sweep checkpoint roundtrip is not "
                         "byte-stable\n");
    return 1;
  }

  // --- Part 3: million-hive farm snapshot ------------------------------
  core::FarmColumns farm;
  farm.resize(static_cast<std::size_t>(hives));
  util::Rng fill(seed);
  for (std::size_t i = 0; i < farm.size(); ++i) {
    farm.battery_level[i] = fill.uniform(0.0, 26640.0);
    farm.wakeups_attempted[i] = 288;
    farm.wakeups_completed[i] = 288 - (i % 7 == 0 ? 3 : 0);
    farm.wakeups_skipped[i] = i % 7 == 0 ? 3 : 0;
    farm.outage_time[i] = fill.uniform(0.0, 900.0);
    farm.harvested[i] = fill.uniform(0.0, 5000.0);
    farm.consumed[i] = fill.uniform(0.0, 5000.0);
    farm.regime_transitions[i] = static_cast<std::int32_t>(i % 5);
    farm.wakeups_degraded[i] = i % 11;
    farm.wakeups_muted[i] = i % 13;
    farm.events_executed[i] = 2000 + i % 100;
  }
  const std::string farm_path = dir + "/checkpoint_bench_farm.ck";
  const auto fsave_start = Clock::now();
  core::save_checkpoint(farm_path, farm);
  const double fsave_time = seconds_since(fsave_start);
  const auto fload_start = Clock::now();
  const core::FarmColumns farm_back = core::load_farm_checkpoint(farm_path);
  const double fload_time = seconds_since(fload_start);
  const bool farm_ok =
      farm_back.size() == farm.size() &&
      std::memcmp(farm.battery_level.data(), farm_back.battery_level.data(),
                  farm.size() * sizeof(double)) == 0 &&
      std::memcmp(farm.events_executed.data(),
                  farm_back.events_executed.data(),
                  farm.size() * sizeof(std::uint64_t)) == 0;
  std::remove(farm_path.c_str());
  std::printf("\nFarm snapshot, %d hives:\n", hives);
  std::printf("  save:    %8.2f ms (budget 250 ms)\n", fsave_time * 1e3);
  std::printf("  restore: %8.2f ms (budget 250 ms)  [%s]\n",
              fload_time * 1e3, farm_ok ? "roundtrip exact" : "DIVERGED");
  if (!farm_ok) {
    std::fprintf(stderr, "FAILED: farm snapshot roundtrip diverged\n");
    return 1;
  }

  if (require) {
    bool ok = true;
    if (speedup < 1.3) {
      std::fprintf(stderr, "FAILED: SoA speedup %.2fx below the 1.30x "
                           "target\n", speedup);
      ok = false;
    }
    if (fsave_time * 1e3 > 250.0 || fload_time * 1e3 > 250.0) {
      std::fprintf(stderr, "FAILED: farm snapshot over the 250 ms "
                           "budget\n");
      ok = false;
    }
    if (!ok) return 1;
  }
  std::printf("\ncheckpoint bench ok\n");
  return 0;
}
