// Tests for the sweep campaign state (core/fleet_columns.hpp) and the
// checkpoint layer (core/checkpoint.hpp): advance bit-identity against
// the scalar sweep oracle (tests/fleet_oracle.hpp; including mid-point
// stops, sharding and merging), a statistic's exact trip through its six
// checkpoint columns, save->restore->save byte stability, the
// pinned bytes of version-2 files, and rejection of truncated,
// bit-flipped, mis-kinded, foreign-scenario or impossible-row files.

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
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
#include "obs/catalog.hpp"
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

// ---- Stat columns: a statistic's six checkpoint columns ---------------

constexpr util::RunningStats core::SweepPoint::*kSweepStats[] = {
    &core::SweepPoint::lost_clients, &core::SweepPoint::active_slots,
    &core::SweepPoint::edge_energy, &core::SweepPoint::cloud_energy,
    &core::SweepPoint::total_energy};

/// `row` saved as the one point of a sweep checkpoint and loaded back, so
/// each statistic goes out through raw() and back through from_raw().
core::SweepPoint through_stat_columns(const core::SweepPoint& row,
                                      const char* name) {
  const core::Hash128 hash =
      core::canonical_hash(core::FleetParams::paper_default());
  FleetColumns columns = FleetColumns::start({row.initial_clients}, 5, 40);
  columns.rows[0] = row;
  const std::string path = temp_path(name);
  core::save_checkpoint(path, columns, hash);
  const core::SweepPoint restored =
      core::load_fleet_checkpoint(path, hash).point(0);
  std::remove(path.c_str());
  return restored;
}

TEST(StatColumns, SetIsExactRepresentationTransfer) {
  util::Rng rng(5);
  core::SweepPoint row = FleetColumns::start({100}, 5, 40).point(0);
  row.cycles = 37;
  for (auto field : kSweepStats)
    for (int i = 0; i < 37; ++i) (row.*field).add(rng.uniform(-3.0, 9.0));
  const core::SweepPoint restored =
      through_stat_columns(row, "ckpt_stats_filled.ck");
  for (auto field : kSweepStats) expect_same_raw(restored.*field, row.*field);
}

TEST(StatColumns, EmptyAccumulatorRoundtrips) {
  // A fresh point's statistics hold the empty-state sentinels.
  const core::SweepPoint restored = through_stat_columns(
      FleetColumns::start({100}, 5, 40).point(0), "ckpt_stats_empty.ck");
  const util::RunningStats empty;
  for (auto field : kSweepStats) expect_same_raw(restored.*field, empty);
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
  // point mid-accumulation, exercising the RNG cursors.
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

/// FNV-1a over a file's bytes, prefixed by its size.
std::string digest(const std::vector<char>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return std::to_string(bytes.size()) + ":" + hex;
}

TEST(Checkpoint, FileBytesArePinned) {
  // Files saved by the layout BEESIMCK version 2 was defined with. A change
  // to the header, the column order or any value's representation moves a
  // digest, and would orphan every checkpoint already on disk.
  const std::string path = temp_path("ckpt_pinned.ck");
  const auto saved = [&](const auto& columns, const core::Hash128& hash) {
    core::save_checkpoint(path, columns, hash);
    return digest(slurp(path));
  };
  const core::LargeScaleSimulator sim(lossy_params());
  const core::Hash128 hash = core::canonical_hash(sim.params());
  FleetColumns sweep = FleetColumns::start({60, 90, 1000, 250000}, 23, 5);
  EXPECT_EQ(saved(sweep, hash), "1252:0af1914a22d3ad79") << "fresh";
  sim.advance(sweep, 2, 1);
  EXPECT_EQ(saved(sweep, hash), "1252:2d2e9a3e185486d8") << "mid-point";
  sim.advance(sweep, 0, 1);
  EXPECT_EQ(saved(sweep, hash), "1252:1ae5bb994dd0eed3") << "complete";

  const core::ResilientFleet fleet(
      lossy_params(), fault::FaultPlan::random_outages(
                          9, 12, 0.25, 2, fault::FaultKind::kCloudOutage));
  ResilienceColumns faulted = ResilienceColumns::start({40, 80, 120}, 9, 12);
  fleet.advance(faulted, 2, 1);
  EXPECT_EQ(saved(faulted, core::resilience_campaign_hash(
                               fleet.base().params(), fleet.plan(),
                               fleet.policy())),
            "947:b4691573470378f9")
      << "two of three resilience points";
  std::remove(path.c_str());
}

// ---- Corruption and identity rejection --------------------------------

constexpr std::size_t kHeaderBytes = 80;

/// What a load throws, or "accepted" when it does not throw.
template <typename Load>
std::string refusal(Load load) {
  try {
    load();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "accepted";
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Stamps the checksum of a hand-edited image, so the edit has to be
/// caught by a check other than the checksum. A copy of the file format's
/// four-lane word checksum (core/checkpoint.cpp), with the checksum field
/// at byte 64 read as zero.
void reseal(std::vector<char>& image) {
  constexpr std::size_t kChecksumAt = 64;
  const std::size_t size = image.size();
  std::uint64_t lane[4];
  for (std::uint64_t l = 0; l < 4; ++l) lane[l] = mix64(size + l);
  std::size_t i = 0;
  std::size_t word = 0;
  for (; i + 8 <= size; i += 8, ++word) {
    std::uint64_t w = 0;
    if (i != kChecksumAt) std::memcpy(&w, image.data() + i, 8);
    lane[word & 3] = mix64(lane[word & 3] ^ w);
  }
  if (i < size) {
    std::uint64_t w = 0;
    std::memcpy(&w, image.data() + i, size - i);
    lane[word & 3] = mix64(lane[word & 3] ^ w);
  }
  std::uint64_t h = mix64(lane[0]);
  h = mix64(h ^ lane[1]);
  h = mix64(h ^ lane[2]);
  h = mix64(h ^ lane[3]);
  std::memcpy(image.data() + kChecksumAt, &h, sizeof h);
}

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
  // Only kinds 1 and 2 exist: a sweep file relabelled 3 is refused as an
  // unknown kind. The kind check precedes the checksum, so the rewritten
  // file needs no re-sealing.
  std::vector<char> relabelled = image_;
  const std::uint32_t kind3 = 3;
  std::memcpy(relabelled.data() + 12, &kind3, sizeof kind3);
  spit(path_, relabelled);
  const std::string why =
      refusal([&] { core::load_fleet_checkpoint(path_, hash_); });
  EXPECT_NE(why.find("unknown kind 3"), std::string::npos) << why;
}

TEST_F(CheckpointCorruption, WrappedPointCountIsRejected) {
  // The row width is odd, so it has an inverse mod 2^64 and every payload
  // size matches *some* point count by wrap-around. A re-sealed file with
  // a 100-byte payload and that point count must be refused at
  // validation, before any column is read.
  std::vector<char> pristine = image_;
  reseal(pristine);
  ASSERT_EQ(pristine, image_) << "reseal() disagrees with the format";
  const std::uint64_t row_bytes = (image_.size() - kHeaderBytes) / 2;
  ASSERT_EQ(row_bytes % 2, 1u);
  std::uint64_t inverse = row_bytes;  // Newton: 3 -> 6 -> ... -> 96 bits
  for (int i = 0; i < 5; ++i) inverse *= 2 - row_bytes * inverse;
  const std::uint64_t payload = 100;
  const std::uint64_t points = payload * inverse;
  ASSERT_EQ(points * row_bytes, payload);  // matches only mod 2^64
  std::vector<char> wrapped(image_.begin(),
                            image_.begin() + kHeaderBytes + payload);
  std::memcpy(wrapped.data() + 16, &points, sizeof points);
  std::memcpy(wrapped.data() + 56, &payload, sizeof payload);
  reseal(wrapped);
  spit(path_, wrapped);
  EXPECT_THROW(core::load_fleet_checkpoint(path_, hash_),
               std::runtime_error);
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
  const std::string why =
      refusal([&] { core::load_fleet_checkpoint(path_, hash_); });
  EXPECT_NE(why.find("scenario identity"), std::string::npos) << why;
  EXPECT_EQ(why.find("params hash"), std::string::npos) << why;
  EXPECT_EQ(why.find("unsupported version"), std::string::npos) << why;
}

TEST_F(CheckpointCorruption, MissingFileIsRejected) {
  EXPECT_THROW(core::load_fleet_checkpoint(temp_path("no_such.ck"), hash_),
               std::runtime_error);
}

/// `image` with the value `v` written at byte `at`, re-sealed.
template <typename T>
std::vector<char> edited(std::vector<char> image, std::size_t at, T v) {
  std::memcpy(image.data() + at, &v, sizeof v);
  reseal(image);
  return image;
}

TEST_F(CheckpointCorruption, ResealedRowsOutsideTheCampaignAreRejected) {
  // Each file below passes the checksum, but holds a value no campaign
  // can: every load must refuse it with std::runtime_error and count the
  // refusal. The sweep payload of the two-row fixture (cycle target 5,
  // two cycles done) starts with the fleet sizes at byte 80, the cycles
  // at 88, the Box-Muller flags at 184 and the first statistic's counts
  // at 186.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::register_catalog(obs::registry());
  obs::Counter& rejected = obs::registry().counter(obs::metric::kCkptRejected);
  const auto expect_refused = [&](const std::vector<char>& image,
                                  const char* what, auto load) {
    spit(path_, image);
    const std::uint64_t before = rejected.value();
    EXPECT_THROW(load(), std::runtime_error) << what;
    EXPECT_EQ(rejected.value(), before + 1) << what;
  };
  const auto load_sweep = [&] { core::load_fleet_checkpoint(path_, hash_); };
  expect_refused(edited(image_, 48, std::int32_t{0}), "cycle target 0",
                 load_sweep);
  expect_refused(edited(image_, 80, std::int32_t{-5}), "clients -5",
                 load_sweep);
  expect_refused(edited(image_, 88, std::int32_t{-1}), "cycles -1",
                 load_sweep);
  expect_refused(edited(image_, 88, std::int32_t{6}), "cycles 6 of 5",
                 load_sweep);
  expect_refused(edited(image_, 184, std::uint8_t{2}), "flag byte 2",
                 load_sweep);
  expect_refused(edited(image_, 186, std::uint64_t{3}), "3 samples in 2",
                 load_sweep);

  // A resilience row is pending or done: its done byte (byte 88 of this
  // two-row file) is 0 or 1, and a pending row holds no samples (its
  // first statistic's count is at byte 186).
  const core::ResilientFleet fleet(lossy_params(), fault::FaultPlan::none());
  ResilienceColumns columns = ResilienceColumns::start({40, 80}, 9, 4);
  fleet.advance(columns, 1, 1);
  core::save_checkpoint(path_, columns, hash_);
  const std::vector<char> resilience = slurp(path_);
  const auto load_resilience = [&] {
    core::load_resilience_checkpoint(path_, hash_);
  };
  expect_refused(edited(resilience, 88, std::uint8_t{2}), "done byte 2",
                 load_resilience);
  expect_refused(edited(resilience, 186, std::uint64_t{1}),
                 "a sample in a pending row", load_resilience);
  spit(path_, resilience);
  EXPECT_NO_THROW(load_resilience());
  obs::set_enabled(was_enabled);
}

// ---- Crash safety -----------------------------------------------------

bool same_stats(const util::RunningStats& a, const util::RunningStats& b) {
  const auto x = a.raw();
  const auto y = b.raw();
  return x.n == y.n && x.mean == y.mean && x.m2 == y.m2 && x.sum == y.sum &&
         x.min == y.min && x.max == y.max;
}

bool same_point(const core::SweepPoint& a, const core::SweepPoint& b) {
  return a.initial_clients == b.initial_clients && a.cycles == b.cycles &&
         a.servers_used == b.servers_used &&
         same_stats(a.lost_clients, b.lost_clients) &&
         same_stats(a.active_slots, b.active_slots) &&
         same_stats(a.edge_energy, b.edge_energy) &&
         same_stats(a.cloud_energy, b.cloud_energy) &&
         same_stats(a.total_energy, b.total_energy);
}

bool same_cursor(const util::Rng::State& a, const util::Rng::State& b) {
  return std::equal(std::begin(a.s), std::end(a.s), std::begin(b.s)) &&
         a.cached_normal == b.cached_normal &&
         a.has_cached_normal == b.has_cached_normal;
}

bool same_columns(const FleetColumns& a, const FleetColumns& b) {
  return a.seed == b.seed && a.cycles_target == b.cycles_target &&
         std::equal(a.rows.begin(), a.rows.end(), b.rows.begin(),
                    b.rows.end(), same_point) &&
         std::equal(a.rng.begin(), a.rng.end(), b.rng.begin(), b.rng.end(),
                    same_cursor);
}

TEST(CheckpointCrash, SaveKilledMidWriteLeavesTheLastGoodCheckpoint) {
  // A helper process (tests/checkpoint_writer.cpp) re-saves a 14.6 MB
  // campaign in a loop and is SIGKILLed 20-50 ms after its first save
  // began, mostly mid-save. Every kill must leave a checkpoint that loads
  // and equals the saved campaign, point for point and cursor for cursor.
  // The helper is a separate binary because this process may already run
  // the task pool's threads.
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

}  // namespace
