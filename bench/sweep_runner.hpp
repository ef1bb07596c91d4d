#pragma once

// Shared checkpoint/resume/shard plumbing for the sweep benches
// (docs/CHECKPOINT.md). Every bench that runs a LargeScaleSimulator or
// ResilientFleet campaign parses the same five knobs through
// CheckpointArgs:
//
//   checkpoint=path   save the campaign state here after this run (and,
//                     with resume=1, load it first if it exists)
//   resume=0|1        continue a previous run instead of starting fresh
//   stop_after=N      advance at most N more cycles per point (sweeps) /
//                     N more points (resilience) this run, then save and
//                     exit — the deterministic stand-in for a mid-run kill
//   shard=I shards=S  advance only points with index % S == I (fan one
//                     campaign out across processes, one checkpoint each)
//   merge=a,b,...     fold shard checkpoints in before advancing
//
// The contract the benches inherit from the columnar state: any
// stop/resume/shard/merge composition lands bit-identically on the
// uninterrupted run's numbers, so a CSV written from a resumed campaign
// byte-compares against one from a straight run (scripts/check.sh
// enforces exactly that on fig6).

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "core/checkpoint.hpp"
#include "core/fleet_columns.hpp"
#include "util/config.hpp"

namespace beesim::bench {

struct CheckpointArgs {
  std::string path;
  bool resume = false;
  int stop_after = 0;
  int shard = 0;
  int shards = 1;
  std::vector<std::string> merge;

  /// Anything beyond a plain full run requested?
  bool active() const noexcept {
    return !path.empty() || !merge.empty() || stop_after > 0 || shards > 1;
  }

  static CheckpointArgs parse(util::Config& config) {
    CheckpointArgs a;
    a.path = config.get_string("checkpoint", "");
    a.resume = config.get_bool("resume", false);
    a.stop_after = static_cast<int>(config.get_int("stop_after", 0));
    a.shard = static_cast<int>(config.get_int("shard", 0));
    a.shards = static_cast<int>(config.get_int("shards", 1));
    const std::string merge_csv = config.get_string("merge", "");
    std::string item;
    for (char c : merge_csv) {
      if (c == ',') {
        if (!item.empty()) a.merge.push_back(item);
        item.clear();
      } else {
        item += c;
      }
    }
    if (!item.empty()) a.merge.push_back(item);
    if (a.stop_after < 0)
      throw std::invalid_argument("stop_after must be >= 0");
    if (a.shards < 1 || a.shard < 0 || a.shard >= a.shards)
      throw std::invalid_argument("need shards >= 1 and 0 <= shard < shards");
    if (a.resume && a.path.empty())
      throw std::invalid_argument("resume=1 needs checkpoint=path");
    return a;
  }

  /// Per-panel variant: same knobs, checkpoint/merge paths suffixed so
  /// multi-campaign benches (fig8 panels, resilience rates) keep one
  /// file per campaign.
  CheckpointArgs with_suffix(const std::string& suffix) const {
    CheckpointArgs a = *this;
    if (!a.path.empty()) a.path += suffix;
    for (auto& m : a.merge) m += suffix;
    return a;
  }
};

inline bool file_exists(const std::string& path) {
  struct ::stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// The per-campaign identity check on top of the checkpoint layer's
/// params-hash check: the restored campaign must be the one the bench
/// was invoked for (same seed, per-point cycles, and sweep range).
template <typename Columns>
void require_campaign(const Columns& columns, const std::string& path,
                      const std::vector<int>& counts, std::uint64_t seed,
                      int cycles) {
  bool range_ok = columns.size() == counts.size();
  for (std::size_t i = 0; range_ok && i < counts.size(); ++i)
    range_ok = columns.rows[i].initial_clients == counts[i];
  if (!range_ok || columns.seed != seed || columns.cycles_target != cycles)
    throw std::runtime_error("checkpoint '" + path +
                             "' holds a different campaign (seed, cycles or "
                             "sweep range differ) — refusing to resume");
}

struct SweepOutcome {
  std::vector<core::SweepPoint> points;
  bool complete = true;
  std::size_t points_done = 0;
  std::int64_t cycles_done = 0;
};

/// Runs (or resumes, shards, merges) one LargeScaleSimulator campaign.
/// With no checkpoint knobs this is exactly sim.sweep(); with them, the
/// columnar advance path — bit-identical either way.
inline SweepOutcome run_sweep(const core::LargeScaleSimulator& sim,
                              const std::vector<int>& counts,
                              std::uint64_t seed, int cycles,
                              unsigned threads, const CheckpointArgs& ck) {
  SweepOutcome out;
  if (!ck.active()) {
    out.points = sim.sweep(counts, seed, cycles, threads);
    out.points_done = counts.size();
    out.cycles_done =
        static_cast<std::int64_t>(counts.size()) * cycles;
    return out;
  }
  const core::Hash128 hash = core::canonical_hash(sim.params());
  core::FleetColumns columns;
  if (ck.resume && file_exists(ck.path)) {
    columns = core::load_fleet_checkpoint(ck.path, hash);
    require_campaign(columns, ck.path, counts, seed, cycles);
    std::printf("  resumed %s: %zu/%zu points done, %lld cycles\n",
                ck.path.c_str(), columns.points_done(), columns.size(),
                static_cast<long long>(columns.cycles_total()));
  } else {
    columns = core::FleetColumns::start(counts, seed, cycles);
  }
  for (const auto& shard_path : ck.merge) {
    core::FleetColumns shard = core::load_fleet_checkpoint(shard_path, hash);
    require_campaign(shard, shard_path, counts, seed, cycles);
    columns.merge_from(shard);
    std::printf("  merged %s\n", shard_path.c_str());
  }
  out.complete =
      sim.advance(columns, ck.stop_after, threads, ck.shard, ck.shards);
  if (!ck.path.empty()) {
    core::save_checkpoint(ck.path, columns, hash);
    std::printf("  checkpoint saved to %s (%zu/%zu points done)\n",
                ck.path.c_str(), columns.points_done(), columns.size());
  }
  out.points = columns.points();
  out.points_done = columns.points_done();
  out.cycles_done = columns.cycles_total();
  return out;
}

struct ResilienceOutcome {
  std::vector<core::ResiliencePoint> points;
  bool complete = true;
  std::size_t points_done = 0;
};

/// ResilientFleet counterpart of run_sweep; stop_after counts whole
/// points (resilience checkpoints are point-granular).
inline ResilienceOutcome run_resilience_sweep(
    const core::ResilientFleet& fleet, const std::vector<int>& counts,
    std::uint64_t seed, int cycles, unsigned threads,
    const CheckpointArgs& ck) {
  ResilienceOutcome out;
  if (!ck.active()) {
    out.points = fleet.sweep(counts, seed, cycles, threads);
    out.points_done = counts.size();
    return out;
  }
  const core::Hash128 hash = core::resilience_campaign_hash(
      fleet.base().params(), fleet.plan(), fleet.policy());
  core::ResilienceColumns columns;
  if (ck.resume && file_exists(ck.path)) {
    columns = core::load_resilience_checkpoint(ck.path, hash);
    require_campaign(columns, ck.path, counts, seed, cycles);
    std::printf("  resumed %s: %zu/%zu points done\n", ck.path.c_str(),
                columns.points_done(), columns.size());
  } else {
    columns = core::ResilienceColumns::start(counts, seed, cycles);
  }
  for (const auto& shard_path : ck.merge) {
    core::ResilienceColumns shard =
        core::load_resilience_checkpoint(shard_path, hash);
    require_campaign(shard, shard_path, counts, seed, cycles);
    columns.merge_from(shard);
    std::printf("  merged %s\n", shard_path.c_str());
  }
  out.complete =
      fleet.advance(columns, ck.stop_after, threads, ck.shard, ck.shards);
  if (!ck.path.empty()) {
    core::save_checkpoint(ck.path, columns, hash);
    std::printf("  checkpoint saved to %s (%zu/%zu points done)\n",
                ck.path.c_str(), columns.points_done(), columns.size());
  }
  out.points = columns.points();
  out.points_done = columns.points_done();
  return out;
}

/// Progress line + the caller's cue to skip final tables/CSVs/anchors
/// when a campaign was deliberately left unfinished (stop_after or a
/// shard run). Returns true when the campaign is complete.
inline bool campaign_complete(const char* what, const SweepOutcome& out,
                              std::size_t total_points) {
  if (out.complete) return true;
  std::printf("\n%s campaign incomplete (%zu/%zu points done) — resume "
              "with resume=1 checkpoint=<path> to finish\n",
              what, out.points_done, total_points);
  return false;
}

}  // namespace beesim::bench
