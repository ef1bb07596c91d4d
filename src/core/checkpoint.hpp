#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/canonical.hpp"
#include "core/fleet_columns.hpp"

namespace beesim::core {

/// What a checkpoint file snapshots (the header's kind field).
enum class CheckpointKind : std::uint32_t {
  kSweep = 1,       ///< FleetColumns — a LargeScaleSimulator campaign
  kResilience = 2,  ///< ResilienceColumns — a ResilientFleet campaign
};

const char* to_string(CheckpointKind kind) noexcept;

/// Parsed, validated header of a checkpoint file — what inspect() returns
/// and what bench tools print before deciding whether to resume.
struct CheckpointInfo {
  std::uint32_t version = 0;
  CheckpointKind kind = CheckpointKind::kSweep;
  std::uint64_t points = 0;        ///< rows in every column
  std::uint64_t seed = 0;          ///< campaign seed
  Hash128 params_hash;             ///< scenario identity (canonical.hpp)
  std::int32_t cycles_target = 0;  ///< per-point cycle goal
  std::uint64_t payload_bytes = 0;
};

/// Versioned, checksummed, memory-mapped snapshots of columnar campaign
/// state (docs/CHECKPOINT.md). The file is the columns verbatim behind an
/// 80-byte header: saving memcpy's each column into a freshly mapped
/// file, restoring maps the file and bulk-copies the columns back out —
/// nothing is parsed row by row. Every load validates magic, version,
/// kind, exact size, a 64-bit whole-file checksum (truncated or bit-
/// flipped files are rejected with std::runtime_error), the point count
/// against the payload size, and that the stored params hash matches the
/// scenario the caller is about to resume, so a checkpoint can never be
/// silently resumed under different physics.
///
/// The determinism contract: restore(save(c)) reproduces `c` exactly, so
/// a campaign advanced, saved, restored (even in another process), and
/// advanced to completion lands bit-identically on an uninterrupted run
/// (tested in tests/test_checkpoint.cpp; enforced on fig6 CSVs by
/// scripts/check.sh).
void save_checkpoint(const std::string& path, const FleetColumns& columns,
                     const Hash128& params_hash);
void save_checkpoint(const std::string& path,
                     const ResilienceColumns& columns,
                     const Hash128& params_hash);

/// Loaders throw std::runtime_error on any validation failure (missing
/// file, wrong kind, corruption, foreign params hash).
FleetColumns load_fleet_checkpoint(const std::string& path,
                                   const Hash128& params_hash);
ResilienceColumns load_resilience_checkpoint(const std::string& path,
                                             const Hash128& params_hash);

/// Header-only read (still checksum-validated): what is in this file?
CheckpointInfo inspect_checkpoint(const std::string& path);

/// Loads every shard and folds them into one campaign via
/// FleetColumns::merge_from — the fan-in of a sweep sharded across
/// processes. All shards must carry the given params hash.
FleetColumns merge_fleet_checkpoints(const std::vector<std::string>& paths,
                                     const Hash128& params_hash);
ResilienceColumns merge_resilience_checkpoints(
    const std::vector<std::string>& paths, const Hash128& params_hash);

/// Scenario identity of a resilience campaign: the fleet params plus the
/// fault plan plus the degradation policy, folded through the canonical
/// hasher — the hash stored in (and demanded of) resilience checkpoints.
Hash128 resilience_campaign_hash(const FleetParams& params,
                                 const fault::FaultPlan& plan,
                                 const ResiliencePolicy& policy);

}  // namespace beesim::core
