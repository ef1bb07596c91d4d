// Tests for the columnar fleet state (core/fleet_columns.hpp) and the
// mmap checkpoint layer (core/checkpoint.hpp): Welford-column parity,
// advance bit-identity against the scalar sweep oracle
// (tests/fleet_oracle.hpp; including mid-point stops, sharding and
// merging), save->restore->save byte stability, and rejection of
// truncated, bit-flipped, mis-kinded or foreign-scenario files.

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/fleet_columns.hpp"
#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "crash_campaign.hpp"
#include "fault/injector.hpp"
#include "fleet_oracle.hpp"
#include "hive/farm.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace beesim;
using beesim::oracle::expect_same_point;
using beesim::oracle::expect_same_raw;
using beesim::oracle::reference_resilient_sweep;
using beesim::oracle::reference_sweep;
using core::FleetColumns;
using core::ResilienceColumns;
using core::StatColumns;

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

core::FleetParams lossy_params() {
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = core::LossConfig::all();
  return fleet;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---- StatColumns ------------------------------------------------------

TEST(StatColumns, SetIsExactRepresentationTransfer) {
  util::RunningStats s;
  util::Rng rng(5);
  for (int i = 0; i < 37; ++i) s.add(rng.uniform(-3.0, 9.0));
  StatColumns cols;
  cols.reset(1);
  cols.set(0, s);
  expect_same_raw(cols.stats(0), s);
}

TEST(StatColumns, EmptyAccumulatorRoundtrips) {
  StatColumns cols;
  cols.reset(1);
  const util::RunningStats empty;
  expect_same_raw(cols.stats(0), empty);
}

// ---- FleetColumns advance vs the scalar sweep oracle ------------------

TEST(FleetColumns, AdvanceMatchesSweepBitForBit) {
  const core::LargeScaleSimulator sim(lossy_params());
  const std::vector<int> counts = {50, 120, 200};
  const auto reference = reference_sweep(sim, counts, 7, 6);

  FleetColumns columns = FleetColumns::start(counts, 7, 6);
  EXPECT_FALSE(columns.complete());
  EXPECT_TRUE(sim.advance(columns, 0, 1));
  EXPECT_TRUE(columns.complete());
  EXPECT_EQ(columns.points_done(), counts.size());
  const auto advanced = columns.points();
  ASSERT_EQ(advanced.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_same_point(advanced[i], reference[i]);
}

TEST(FleetColumns, MidPointStopsStillLandBitIdentical) {
  const core::LargeScaleSimulator sim(lossy_params());
  const std::vector<int> counts = {80, 160};
  const auto reference = reference_sweep(sim, counts, 3, 10);

  // 10 cycles per point, delivered 3 + 3 + 4 — each advance stops every
  // point mid-accumulation, exercising the RNG-cursor columns.
  FleetColumns columns = FleetColumns::start(counts, 3, 10);
  EXPECT_FALSE(sim.advance(columns, 3, 1));
  EXPECT_EQ(columns.cycles_total(), 6);
  EXPECT_FALSE(sim.advance(columns, 3, 1));
  EXPECT_TRUE(sim.advance(columns, 4, 1));
  const auto advanced = columns.points();
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_same_point(advanced[i], reference[i]);
}

TEST(FleetColumns, ShardedAdvanceThenMergeMatchesSweep) {
  const core::LargeScaleSimulator sim(lossy_params());
  const std::vector<int> counts = {30, 60, 90, 120, 150};
  const auto reference = reference_sweep(sim, counts, 11, 4);

  FleetColumns shard0 = FleetColumns::start(counts, 11, 4);
  FleetColumns shard1 = FleetColumns::start(counts, 11, 4);
  FleetColumns shard2 = FleetColumns::start(counts, 11, 4);
  // No single shard completes the campaign...
  EXPECT_FALSE(sim.advance(shard0, 0, 1, 0, 3));
  EXPECT_FALSE(sim.advance(shard1, 0, 1, 1, 3));
  EXPECT_FALSE(sim.advance(shard2, 0, 1, 2, 3));
  // ...but the merge of the three does.
  shard0.merge_from(shard1);
  shard0.merge_from(shard2);
  EXPECT_TRUE(shard0.complete());
  const auto merged = shard0.points();
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_same_point(merged[i], reference[i]);
}

TEST(FleetColumns, MergeRejectsForeignCampaign) {
  const std::vector<int> counts = {10, 20};
  FleetColumns a = FleetColumns::start(counts, 1, 2);
  FleetColumns seed_differs = FleetColumns::start(counts, 2, 2);
  FleetColumns cycles_differ = FleetColumns::start(counts, 1, 3);
  FleetColumns range_differs = FleetColumns::start({10, 30}, 1, 2);
  EXPECT_THROW(a.merge_from(seed_differs), std::invalid_argument);
  EXPECT_THROW(a.merge_from(cycles_differ), std::invalid_argument);
  EXPECT_THROW(a.merge_from(range_differs), std::invalid_argument);
}

TEST(FleetColumns, AdvanceRejectsBadShardSpec) {
  const core::LargeScaleSimulator sim(lossy_params());
  FleetColumns columns = FleetColumns::start({10}, 1, 1);
  EXPECT_THROW(sim.advance(columns, 0, 1, 0, 0), std::invalid_argument);
  EXPECT_THROW(sim.advance(columns, 0, 1, 2, 2), std::invalid_argument);
  EXPECT_THROW(sim.advance(columns, 0, 1, -1, 2), std::invalid_argument);
}

// ---- Checkpoint files: sweep kind -------------------------------------

TEST(Checkpoint, SaveRestoreSaveIsByteIdentical) {
  const core::LargeScaleSimulator sim(lossy_params());
  const core::Hash128 hash = core::canonical_hash(sim.params());
  const std::vector<int> counts = {40, 80, 120};
  FleetColumns columns = FleetColumns::start(counts, 13, 8);
  sim.advance(columns, 5, 1);  // a half-done campaign, cursors mid-stream

  const std::string p1 = temp_path("ckpt_roundtrip_1.ck");
  const std::string p2 = temp_path("ckpt_roundtrip_2.ck");
  core::save_checkpoint(p1, columns, hash);
  const FleetColumns restored = core::load_fleet_checkpoint(p1, hash);
  core::save_checkpoint(p2, restored, hash);
  EXPECT_EQ(slurp(p1), slurp(p2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(Checkpoint, InterruptedRestoredRunMatchesUninterrupted) {
  const core::LargeScaleSimulator sim(lossy_params());
  const core::Hash128 hash = core::canonical_hash(sim.params());
  const std::vector<int> counts = {70, 140};
  const auto reference = reference_sweep(sim, counts, 17, 9);

  // Simulate a kill after 4 of 9 cycles: save, drop the in-memory state,
  // restore (as another process would) and run to completion.
  FleetColumns columns = FleetColumns::start(counts, 17, 9);
  EXPECT_FALSE(sim.advance(columns, 4, 1));
  const std::string path = temp_path("ckpt_interrupted.ck");
  core::save_checkpoint(path, columns, hash);

  FleetColumns resumed = core::load_fleet_checkpoint(path, hash);
  EXPECT_TRUE(sim.advance(resumed, 0, 1));
  const auto finished = resumed.points();
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_same_point(finished[i], reference[i]);
  std::remove(path.c_str());
}

TEST(Checkpoint, MergeFleetCheckpointsFansShardsBackIn) {
  const core::LargeScaleSimulator sim(lossy_params());
  const core::Hash128 hash = core::canonical_hash(sim.params());
  const std::vector<int> counts = {25, 50, 75, 100};
  const auto reference = reference_sweep(sim, counts, 29, 3);

  std::vector<std::string> paths;
  for (int s = 0; s < 2; ++s) {
    FleetColumns shard = FleetColumns::start(counts, 29, 3);
    sim.advance(shard, 0, 1, s, 2);
    paths.push_back(temp_path(("ckpt_shard_" + std::to_string(s)).c_str()));
    core::save_checkpoint(paths.back(), shard, hash);
  }
  const FleetColumns merged = core::merge_fleet_checkpoints(paths, hash);
  EXPECT_TRUE(merged.complete());
  const auto points = merged.points();
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_same_point(points[i], reference[i]);
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(Checkpoint, InspectReportsHeaderFields) {
  const core::LargeScaleSimulator sim(lossy_params());
  const core::Hash128 hash = core::canonical_hash(sim.params());
  FleetColumns columns = FleetColumns::start({10, 20, 30}, 5, 7);
  const std::string path = temp_path("ckpt_inspect.ck");
  core::save_checkpoint(path, columns, hash);
  const core::CheckpointInfo info = core::inspect_checkpoint(path);
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.kind, core::CheckpointKind::kSweep);
  EXPECT_EQ(info.points, 3u);
  EXPECT_EQ(info.seed, 5u);
  EXPECT_EQ(info.cycles_target, 7);
  EXPECT_EQ(info.params_hash.hi, hash.hi);
  EXPECT_EQ(info.params_hash.lo, hash.lo);
  std::remove(path.c_str());
}

// ---- Corruption and identity rejection --------------------------------

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    const core::LargeScaleSimulator sim(lossy_params());
    hash_ = core::canonical_hash(sim.params());
    FleetColumns columns = FleetColumns::start({60, 90}, 23, 5);
    sim.advance(columns, 2, 1);
    // One file per test: ctest may run the tests as parallel processes,
    // and one must not truncate a file another has mapped.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = temp_path(("ckpt_corrupt_" + name + ".ck").c_str());
    core::save_checkpoint(path_, columns, hash_);
    image_ = slurp(path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::vector<char> image_;
  core::Hash128 hash_;
};

TEST_F(CheckpointCorruption, PristineFileLoads) {
  EXPECT_NO_THROW(core::load_fleet_checkpoint(path_, hash_));
}

TEST_F(CheckpointCorruption, TruncatedFileIsRejected) {
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{8}, std::size_t{79},
        image_.size() - 1}) {
    std::vector<char> cut(image_.begin(),
                          image_.begin() + static_cast<long>(keep));
    spit(path_, cut);
    EXPECT_THROW(core::load_fleet_checkpoint(path_, hash_),
                 std::runtime_error)
        << "kept " << keep << " bytes";
  }
}

TEST_F(CheckpointCorruption, EveryBitFlipRegionIsRejected) {
  // One flip in the magic, one in the header fields, one in the payload,
  // and one in the stored checksum itself.
  for (const std::size_t at :
       {std::size_t{0}, std::size_t{20}, std::size_t{96},
        std::size_t{64}}) {
    std::vector<char> bad = image_;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    spit(path_, bad);
    EXPECT_THROW(core::load_fleet_checkpoint(path_, hash_),
                 std::runtime_error)
        << "flip at byte " << at;
  }
}

TEST_F(CheckpointCorruption, AppendedGarbageIsRejected) {
  std::vector<char> grown = image_;
  grown.push_back('x');
  spit(path_, grown);
  EXPECT_THROW(core::load_fleet_checkpoint(path_, hash_),
               std::runtime_error);
}

TEST_F(CheckpointCorruption, ForeignParamsHashIsRejected) {
  core::FleetParams other = lossy_params();
  other.server.max_parallel = 35;  // different physics
  const core::Hash128 foreign =
      core::canonical_hash(core::LargeScaleSimulator(other).params());
  EXPECT_THROW(core::load_fleet_checkpoint(path_, foreign),
               std::runtime_error);
}

TEST_F(CheckpointCorruption, WrongKindIsRejected) {
  EXPECT_THROW(core::load_resilience_checkpoint(path_, hash_),
               std::runtime_error);
  EXPECT_THROW(core::load_farm_checkpoint(path_), std::runtime_error);
}

TEST_F(CheckpointCorruption, VersionOneFileIsRefusedForItsIdentity) {
  // Version 1 stored byte-wise scenario identities, which no current
  // scenario can match: the refusal must say so, not report a params-hash
  // mismatch. The version check precedes the checksum, so the rewritten
  // file needs no re-sealing.
  std::vector<char> old = image_;
  const std::uint32_t v1 = 1;
  std::memcpy(old.data() + 8, &v1, sizeof v1);
  spit(path_, old);
  const auto refusal = [](auto load) {
    try {
      load();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  for (const std::string& why :
       {refusal([&] { core::load_fleet_checkpoint(path_, hash_); }),
        refusal([&] { core::inspect_checkpoint(path_); })}) {
    EXPECT_NE(why.find("scenario identity"), std::string::npos) << why;
    EXPECT_EQ(why.find("params hash"), std::string::npos) << why;
    EXPECT_EQ(why.find("unsupported version"), std::string::npos) << why;
  }
}

TEST_F(CheckpointCorruption, MissingFileIsRejected) {
  EXPECT_THROW(core::load_fleet_checkpoint(temp_path("no_such.ck"), hash_),
               std::runtime_error);
}

// ---- Crash safety -----------------------------------------------------

bool same_stats(const StatColumns& a, const StatColumns& b) {
  return a.n == b.n && a.mean == b.mean && a.m2 == b.m2 && a.sum == b.sum &&
         a.min == b.min && a.max == b.max;
}

bool same_columns(const FleetColumns& a, const FleetColumns& b) {
  return a.seed == b.seed && a.cycles_target == b.cycles_target &&
         a.clients == b.clients && a.cycles_done == b.cycles_done &&
         a.servers_used == b.servers_used && a.rng_s0 == b.rng_s0 &&
         a.rng_s1 == b.rng_s1 && a.rng_s2 == b.rng_s2 &&
         a.rng_s3 == b.rng_s3 && a.rng_cached_normal == b.rng_cached_normal &&
         a.rng_has_cached == b.rng_has_cached &&
         same_stats(a.lost_clients, b.lost_clients) &&
         same_stats(a.active_slots, b.active_slots) &&
         same_stats(a.edge_energy, b.edge_energy) &&
         same_stats(a.cloud_energy, b.cloud_energy) &&
         same_stats(a.total_energy, b.total_energy);
}

TEST(CheckpointCrash, SaveKilledMidWriteLeavesTheLastGoodCheckpoint) {
  // A helper process (tests/checkpoint_writer.cpp) re-saves a 14.6 MB
  // campaign in a loop and is SIGKILLed 20-50 ms after its first save
  // began, mostly mid-save. Every kill must leave a checkpoint that loads
  // and equals the saved columns. The helper is a separate binary
  // because this process may already run the task pool's threads.
  std::string dir = ::testing::TempDir() + "beesim_crash_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/campaign.ck";
  const FleetColumns columns = crash::campaign();
  core::save_checkpoint(path, columns, crash::campaign_hash());
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    int ready[2];
    ASSERT_EQ(::pipe(ready), 0);
    posix_spawn_file_actions_t actions;
    ::posix_spawn_file_actions_init(&actions);
    ::posix_spawn_file_actions_adddup2(&actions, ready[1], STDOUT_FILENO);
    ::posix_spawn_file_actions_addclose(&actions, ready[0]);
    char* const argv[] = {const_cast<char*>(BEESIM_CHECKPOINT_WRITER),
                          const_cast<char*>(path.c_str()), nullptr};
    pid_t pid = 0;
    const int spawned = ::posix_spawn(&pid, BEESIM_CHECKPOINT_WRITER,
                                      &actions, nullptr, argv, environ);
    ::posix_spawn_file_actions_destroy(&actions);
    ::close(ready[1]);
    ASSERT_EQ(spawned, 0) << std::strerror(spawned);
    char byte = 0;
    const ssize_t began = ::read(ready[0], &byte, 1);
    ::close(ready[0]);
    std::this_thread::sleep_for(std::chrono::milliseconds(20 + trial * 7 % 31));
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_EQ(began, 1) << "the writer exited before saving";
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "the writer stopped before the kill";
    FleetColumns loaded;
    ASSERT_NO_THROW(
        loaded = core::load_fleet_checkpoint(path, crash::campaign_hash()));
    EXPECT_TRUE(same_columns(loaded, columns));
  }
  std::filesystem::remove_all(dir);
}

// ---- Resilience columns and checkpoints -------------------------------

class ResilienceCheckpoint : public ::testing::Test {
 protected:
  ResilienceCheckpoint()
      : plan_(fault::FaultPlan::random_outages(
            9, 12, 0.25, 2, fault::FaultKind::kCloudOutage)),
        fleet_(lossy_params(), plan_) {}

  fault::FaultPlan plan_;
  core::ResilientFleet fleet_;
  const std::vector<int> counts_ = {40, 80, 120};
};

TEST_F(ResilienceCheckpoint, AdvanceMatchesSweepBitForBit) {
  const auto reference = reference_resilient_sweep(fleet_, counts_, 9, 12);
  ResilienceColumns columns = ResilienceColumns::start(counts_, 9, 12);
  EXPECT_TRUE(fleet_.advance(columns, 0, 1));
  const auto advanced = columns.points();
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_same_point(advanced[i], reference[i]);
}

TEST_F(ResilienceCheckpoint, PointGranularStopsAndResumeMatch) {
  const auto reference = reference_resilient_sweep(fleet_, counts_, 9, 12);
  const core::Hash128 hash = core::resilience_campaign_hash(
      fleet_.base().params(), fleet_.plan(), fleet_.policy());

  ResilienceColumns columns = ResilienceColumns::start(counts_, 9, 12);
  EXPECT_FALSE(fleet_.advance(columns, 2, 1));  // 2 of 3 points
  EXPECT_EQ(columns.points_done(), 2u);
  const std::string path = temp_path("ckpt_resilience.ck");
  core::save_checkpoint(path, columns, hash);

  ResilienceColumns resumed = core::load_resilience_checkpoint(path, hash);
  EXPECT_TRUE(fleet_.advance(resumed, 0, 1));
  const auto finished = resumed.points();
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_same_point(finished[i], reference[i]);
  std::remove(path.c_str());
}

TEST_F(ResilienceCheckpoint, ShardedMergeMatchesSweep) {
  const auto reference = reference_resilient_sweep(fleet_, counts_, 9, 12);
  const core::Hash128 hash = core::resilience_campaign_hash(
      fleet_.base().params(), fleet_.plan(), fleet_.policy());
  std::vector<std::string> paths;
  for (int s = 0; s < 2; ++s) {
    ResilienceColumns shard = ResilienceColumns::start(counts_, 9, 12);
    fleet_.advance(shard, 0, 1, s, 2);
    paths.push_back(
        temp_path(("ckpt_res_shard_" + std::to_string(s)).c_str()));
    core::save_checkpoint(paths.back(), shard, hash);
  }
  const ResilienceColumns merged =
      core::merge_resilience_checkpoints(paths, hash);
  EXPECT_TRUE(merged.complete());
  const auto points = merged.points();
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_same_point(points[i], reference[i]);
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST_F(ResilienceCheckpoint, CampaignHashSeparatesPlansAndPolicies) {
  const core::Hash128 base = core::resilience_campaign_hash(
      fleet_.base().params(), fleet_.plan(), fleet_.policy());
  // Differ by construction (one extra window) rather than by reseeding
  // random_outages, which can legitimately emit the same schedule for
  // two nearby seeds at a small cycle count.
  fault::FaultPlan other_plan = fleet_.plan();
  other_plan.add(fault::FaultWindow{fault::FaultKind::kLinkDegraded,
                                    /*first_cycle=*/10, /*last_cycle=*/11,
                                    /*severity=*/0.5});
  const core::Hash128 other = core::resilience_campaign_hash(
      fleet_.base().params(), other_plan, fleet_.policy());
  core::ResiliencePolicy tweaked;
  tweaked.load_shedding = false;
  const core::Hash128 third = core::resilience_campaign_hash(
      fleet_.base().params(), fleet_.plan(), tweaked);
  EXPECT_FALSE(base.hi == other.hi && base.lo == other.lo);
  EXPECT_FALSE(base.hi == third.hi && base.lo == third.lo);
}

TEST_F(ResilienceCheckpoint, CampaignHashIsPinned) {
  // Golden value of the word-wise identity (see CanonicalHash.Golden* in
  // tests/test_serve.cpp): moving it orphans every saved checkpoint.
  EXPECT_EQ(core::resilience_campaign_hash(fleet_.base().params(),
                                           fleet_.plan(), fleet_.policy())
                .to_string(),
            "e656c1ce29e016dc.b95e3734a8544364");
}

// ---- Farm columns -----------------------------------------------------

TEST(FarmColumns, RunsRoundtripThroughColumnsAndDisk) {
  std::vector<hive::HiveRun> runs(5);
  util::Rng rng(31);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    auto& r = runs[i];
    r.stats.wakeups_attempted = 100 + i;
    r.stats.wakeups_completed = 90 + i;
    r.stats.wakeups_skipped = 10;
    r.stats.outage_time = rng.uniform(0.0, 500.0);
    r.stats.harvested = rng.uniform(0.0, 4000.0);
    r.stats.consumed = rng.uniform(0.0, 4000.0);
    r.stats.regime_transitions = static_cast<int>(i);
    r.stats.wakeups_degraded = i * 2;
    r.stats.wakeups_muted = i * 3;
    r.events_executed = 1000 + i;
    r.battery_level = rng.uniform(0.0, 26640.0);
  }
  const core::FarmColumns columns = core::FarmColumns::from_runs(runs);
  ASSERT_EQ(columns.size(), runs.size());

  const std::string path = temp_path("ckpt_farm.ck");
  core::save_checkpoint(path, columns);
  const core::FarmColumns restored = core::load_farm_checkpoint(path);
  const std::vector<hive::HiveRun> back = restored.to_runs();
  ASSERT_EQ(back.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(back[i].stats.wakeups_attempted,
              runs[i].stats.wakeups_attempted);
    EXPECT_EQ(back[i].stats.wakeups_completed,
              runs[i].stats.wakeups_completed);
    EXPECT_EQ(back[i].stats.wakeups_skipped, runs[i].stats.wakeups_skipped);
    EXPECT_EQ(back[i].stats.outage_time, runs[i].stats.outage_time);
    EXPECT_EQ(back[i].stats.harvested, runs[i].stats.harvested);
    EXPECT_EQ(back[i].stats.consumed, runs[i].stats.consumed);
    EXPECT_EQ(back[i].stats.regime_transitions,
              runs[i].stats.regime_transitions);
    EXPECT_EQ(back[i].stats.wakeups_degraded,
              runs[i].stats.wakeups_degraded);
    EXPECT_EQ(back[i].stats.wakeups_muted, runs[i].stats.wakeups_muted);
    EXPECT_EQ(back[i].events_executed, runs[i].events_executed);
    EXPECT_EQ(back[i].battery_level, runs[i].battery_level);
  }
  std::remove(path.c_str());
}

TEST(FarmColumns, RealFarmRunSurvivesTheColumns) {
  // A tiny real DES farm: columns must carry the exact per-hive results.
  hive::SmartBeehive::Config hive_template;
  const auto configs = hive::farm_configs(hive_template, 3);
  const auto runs = hive::run_hives_parallel(configs, 3600.0, 1);
  const auto back = core::FarmColumns::from_runs(runs).to_runs();
  ASSERT_EQ(back.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(back[i].battery_level, runs[i].battery_level);
    EXPECT_EQ(back[i].stats.consumed, runs[i].stats.consumed);
    EXPECT_EQ(back[i].events_executed, runs[i].events_executed);
  }
}

}  // namespace
