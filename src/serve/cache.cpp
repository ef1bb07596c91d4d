#include "serve/cache.hpp"

#include <chrono>

#include "obs/catalog.hpp"

namespace beesim::serve {
namespace {

double steady_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

PointCache::PointCache(std::size_t shards, std::size_t capacity,
                       double ttl_seconds, ClockFn clock)
    : ttl_seconds_(ttl_seconds > 0.0 ? ttl_seconds : 0.0),
      clock_(clock ? std::move(clock) : ClockFn(steady_now)) {
  if (shards < 1) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
  per_shard_capacity_ = capacity == 0 ? 0 : (capacity + shards - 1) / shards;
  capacity_ = per_shard_capacity_ * shards;
}

void PointCache::expire_slot(Shard& shard, std::size_t slot) const {
  shard.ring[slot] = {PointKey{}, Kind::kFree, 0};
  shard.free_slots.push_back(slot);
  expirations_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) {
    static auto& expirations =
        obs::registry().counter(obs::metric::kServeCacheExpirations);
    expirations.inc();
  }
}

std::size_t PointCache::claim_slot(Shard& shard, const PointKey& key,
                                   Kind kind) {
  // New entries start unreferenced: they earn their second chance on the
  // first lookup. Inserting with the bit set would let a burst of fresh
  // keys force the hand all the way around and evict the hot entry it
  // just cleared (CLOCK degenerates to FIFO at small capacities).
  if (!shard.free_slots.empty()) {
    const std::size_t index = shard.free_slots.back();
    shard.free_slots.pop_back();
    shard.ring[index] = {key, kind, 0};
    return index;
  }
  if (per_shard_capacity_ == 0 || shard.ring.size() < per_shard_capacity_) {
    shard.ring.push_back({key, kind, 0});
    return shard.ring.size() - 1;
  }
  // CLOCK: sweep the hand, granting one second chance per referenced
  // slot; the first unreferenced slot is the victim. Terminates within
  // two laps because every pass clears a reference bit.
  for (;;) {
    Slot& slot = shard.ring[shard.hand];
    const std::size_t index = shard.hand;
    shard.hand = (shard.hand + 1) % shard.ring.size();
    if (slot.referenced != 0) {
      slot.referenced = 0;
      continue;
    }
    if (slot.kind == Kind::kSweep)
      shard.sweep.erase(slot.key);
    else
      shard.resilience.erase(slot.key);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
      static auto& evictions =
          obs::registry().counter(obs::metric::kServeCacheEvictions);
      evictions.inc();
    }
    slot = {key, kind, 0};
    return index;
  }
}

template <typename Point>
bool PointCache::find(Map<Point> Shard::*map, const PointKey& key,
                      Point* out) const {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  Map<Point>& entries = shard.*map;
  const auto it = entries.find(key);
  if (it == entries.end()) return false;
  if (expired(it->second.inserted_at)) {
    expire_slot(shard, it->second.slot);
    entries.erase(it);
    return false;
  }
  *out = it->second.point;
  shard.ring[it->second.slot].referenced = 1;
  return true;
}

template <typename Point>
void PointCache::store(Map<Point> Shard::*map, Kind kind, const PointKey& key,
                       const Point& point) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  Map<Point>& entries = shard.*map;
  if (entries.count(key) != 0) return;  // first writer wins
  const std::size_t slot = claim_slot(shard, key, kind);
  entries.emplace(key, Entry<Point>{point, slot, stamp()});
}

bool PointCache::peek(const PointKey& key, core::SweepPoint* out) const {
  return find(&Shard::sweep, key, out);
}

bool PointCache::peek(const PointKey& key, core::ResiliencePoint* out) const {
  return find(&Shard::resilience, key, out);
}

void PointCache::count_hits(std::uint64_t n) const noexcept {
  hits_.fetch_add(n, std::memory_order_relaxed);
}

bool PointCache::lookup_sweep(const PointKey& key,
                              core::SweepPoint* out) const {
  return counted(peek(key, out));
}

void PointCache::insert_sweep(const PointKey& key,
                              const core::SweepPoint& point) {
  store(&Shard::sweep, Kind::kSweep, key, point);
}

bool PointCache::lookup_resilience(const PointKey& key,
                                   core::ResiliencePoint* out) const {
  return counted(peek(key, out));
}

void PointCache::insert_resilience(const PointKey& key,
                                   const core::ResiliencePoint& point) {
  store(&Shard::resilience, Kind::kResilience, key, point);
}

PointCache::Stats PointCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.expirations = expirations_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.entries += shard->sweep.size() + shard->resilience.size();
  }
  return stats;
}

std::vector<std::size_t> PointCache::shard_occupancy() const {
  std::vector<std::size_t> occupancy;
  occupancy.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    occupancy.push_back(shard->sweep.size() + shard->resilience.size());
  }
  return occupancy;
}

}  // namespace beesim::serve
