#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/canonical.hpp"
#include "core/network_sim.hpp"
#include "core/resilience.hpp"

namespace beesim::serve {

/// Content address of one computed point: the scenario-group hash (see
/// serve::scenario_group — canonical hash of FleetParams + scenario
/// definition + cycles + seed) plus the fleet size. Because
/// LargeScaleSimulator::sweep and ResilientFleet::sweep derive one RNG
/// stream per (seed, fleet size), the point at a given key is the same
/// no matter which sweep range, batch, thread count or tenant computed
/// it — which is what makes a cache hit bit-identical to a cold compute.
struct PointKey {
  core::Hash128 group;
  int client_count = 0;

  friend bool operator==(const PointKey& a, const PointKey& b) noexcept {
    return a.group == b.group && a.client_count == b.client_count;
  }
};

/// Hash functor for PointKey (the group hash is already uniform; fold in
/// the count with a multiplicative mix). This is the *bucket* hash of the
/// per-shard maps; shard selection re-mixes it (see PointCache::shard_mix)
/// so the two stay decorrelated — with one hash for both, every shard's
/// map would see only keys whose hash is congruent to the shard index,
/// systematically starving most of its buckets.
struct PointKeyHash {
  std::size_t operator()(const PointKey& k) const noexcept {
    std::uint64_t x = k.group.lo ^ (k.group.hi * 0x9e3779b97f4a7c15ULL);
    x ^= static_cast<std::uint64_t>(k.client_count) * 0xff51afd7ed558ccdULL;
    return static_cast<std::size_t>(x ^ (x >> 33));
  }
};

/// Sharded content-addressed store of computed SweepPoints and
/// ResiliencePoints. Lookups and inserts take one shard mutex (sharded by
/// a re-mixed key hash so concurrent workers rarely contend); values are
/// returned by copy — both point types are small trivially-copyable
/// aggregates.
///
/// Capacity is bounded (default kDefaultCapacity entries across both
/// point types; 0 = unbounded): each shard runs CLOCK over its resident
/// entries, so a long-lived service sweeping ever-new scenarios stops
/// growing without bound — the bug this class shipped with for five PRs.
/// Eviction is safe by the determinism contract: a re-computed point is
/// bit-identical to the evicted one (regression-tested), so eviction can
/// only cost recompute time, never change results. Resident entries are
/// never mutated after insert.
class PointCache {
 public:
  /// Default capacity bound: plenty for every figure sweep in the bench
  /// suite while capping resident memory near tens of MB.
  static constexpr std::size_t kDefaultCapacity = 65536;

  /// `capacity` is the total entry bound across all shards (rounded up
  /// to a multiple of `shards`); 0 disables eviction entirely.
  explicit PointCache(std::size_t shards = 16,
                      std::size_t capacity = kDefaultCapacity);

  /// Sweep-point lookup; counts a hit or miss. Returns true on hit and
  /// copies the point into `out`. A hit marks the entry recently used.
  bool lookup_sweep(const PointKey& key, core::SweepPoint* out) const;
  /// Inserts a computed sweep point (first writer wins; duplicate inserts
  /// of the same key carry identical bytes by the determinism contract).
  /// At capacity the shard's CLOCK hand picks the victim.
  void insert_sweep(const PointKey& key, const core::SweepPoint& point);

  /// Resilience-point lookup; counts a hit or miss.
  bool lookup_resilience(const PointKey& key,
                         core::ResiliencePoint* out) const;
  /// Inserts a computed resilience point (first writer wins).
  void insert_resilience(const PointKey& key,
                         const core::ResiliencePoint& point);

  /// Uncounted lookups: the same as lookup_sweep / lookup_resilience
  /// (a hit marks the entry recently used) except that neither a hit nor
  /// a miss is counted. SimulationService::submit resolves requests with
  /// these and reports the hits through count_hits() only when every
  /// point of the request was found; a request that goes on to a worker
  /// is counted once, by the worker's lookups.
  bool peek(const PointKey& key, core::SweepPoint* out) const;
  bool peek(const PointKey& key, core::ResiliencePoint* out) const;
  /// Adds `n` to the lifetime hit counter (see peek).
  void count_hits(std::uint64_t n) const noexcept;

  /// Point-in-time counters: lifetime hits/misses/evictions and
  /// resident entries.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;

    double hit_ratio() const noexcept {
      const auto total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };
  Stats stats() const;

  /// Resident entries per shard, in shard order — lets tests assert the
  /// re-mixed shard hash spreads keys near-uniformly.
  std::vector<std::size_t> shard_occupancy() const;

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  /// Which per-shard map owns a CLOCK slot's key.
  enum class Kind : std::uint8_t { kSweep, kResilience };

  /// One CLOCK ring slot: the resident key, its owning map, and the
  /// second-chance reference bit the hand clears as it sweeps.
  struct Slot {
    PointKey key;
    Kind kind = Kind::kSweep;
    std::uint8_t referenced = 0;
  };

  /// Map values carry the slot index so hits can set the reference bit
  /// and evictions can erase the victim without a second lookup.
  template <typename Point>
  struct Entry {
    Point point;
    std::size_t slot = 0;
  };
  template <typename Point>
  using Map = std::unordered_map<PointKey, Entry<Point>, PointKeyHash>;

  struct Shard {
    mutable std::mutex mutex;
    Map<core::SweepPoint> sweep;
    Map<core::ResiliencePoint> resilience;
    std::vector<Slot> ring;  // grows to the per-shard capacity, then CLOCK
    std::size_t hand = 0;
  };

  /// Shard selector: the bucket hash pushed through a splitmix64-style
  /// finalizer, so shard index and bucket index draw on decorrelated
  /// bits (occupancy uniformity is regression-tested).
  static std::size_t shard_mix(std::size_t h) noexcept {
    std::uint64_t x =
        static_cast<std::uint64_t>(h) + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }

  Shard& shard_for(const PointKey& key) const noexcept {
    return *shards_[shard_mix(PointKeyHash{}(key)) % shards_.size()];
  }

  /// Returns the ring slot for a new entry: grows the ring, or at
  /// capacity evicts the CLOCK victim. Caller holds the shard mutex.
  std::size_t claim_slot(Shard& shard, const PointKey& key, Kind kind);

  /// The uncounted lookup and the insert behind both point types.
  template <typename Point>
  bool find(Map<Point> Shard::*map, const PointKey& key, Point* out) const;
  template <typename Point>
  void store(Map<Point> Shard::*map, Kind kind, const PointKey& key,
             const Point& point);

  /// Counts one lookup as a hit or a miss and passes `hit` through.
  bool counted(bool hit) const noexcept {
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    return hit;
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t capacity_ = 0;            // total bound, 0 = unbounded
  std::size_t per_shard_capacity_ = 0;  // 0 = unbounded
  // Written on every served request; kept off the cache line of the
  // shard table above, which every lookup reads.
  alignas(64) mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace beesim::serve
