#pragma once

#include <cstdint>

#include "core/server.hpp"

namespace beesim::core {

/// How the allocator fills servers and time slots with clients.
enum class FillPolicy {
  /// The paper's policy: fill one slot up to its maximum after another,
  /// one server after another.
  kFillFirst,
  /// Spread clients evenly across all slots of the minimum number of
  /// servers. Under the saturation loss (model A) this avoids the
  /// compounding penalty of packed slots — the ablation DESIGN.md calls
  /// out.
  kBalanced,
  /// Deal clients one at a time across the slots of the minimum number of
  /// servers (round robin). Equivalent occupancy to kBalanced up to
  /// ordering; kept as a distinct, order-preserving policy.
  kRoundRobin,
};

const char* to_string(FillPolicy policy) noexcept;

/// The allocation of a fleet of clients onto servers, as a flat,
/// fixed-capacity, trivially-copyable occupancy histogram. Servers with
/// identical slot layouts are grouped into classes, and each class
/// stores its layout as bands of consecutive slots holding the same
/// number of clients. Each field lives in its own small array (servers
/// per class, bands per class, band occupancy, band width), so building
/// one touches no heap and reading one is a branch-light linear pass:
/// LargeScaleSimulator::simulate_cycle fills a stack-resident layout
/// every cycle. Classes are in server order, and bands in slot order.
/// Zero-occupancy bands are kept where the spread policies leave a
/// server's trailing slots empty. All three built-in policies produce at
/// most 3 classes of at most 2 bands (proved by the construction in
/// allocator.cpp). The per-slot vector form is the test oracle
/// `oracle::allocate` in tests/fleet_oracle.hpp, and
/// `oracle::expand(layout)` must equal it slot for slot (fuzz-tested).
struct CompactLayout {
  static constexpr int kMaxClasses = 3;
  static constexpr int kMaxBands = 2;

  int class_count = 0;
  /// Replica count of each server class.
  std::int64_t servers[kMaxClasses] = {0, 0, 0};
  /// Bands per class (<= kMaxBands).
  int band_count[kMaxClasses] = {0, 0, 0};
  /// Clients in each slot of band b of class c.
  int band_clients[kMaxClasses][kMaxBands] = {};
  /// Consecutive slots band b of class c spans.
  int band_slots[kMaxClasses][kMaxBands] = {};

  std::int64_t servers_used() const noexcept;
  std::int64_t total_clients() const noexcept;
  std::int64_t active_slots() const noexcept;
};

/// Allocates `clients` onto as many servers of type `spec` as required
/// ("creates servers based on their features ... allocates every client to
/// one server, and links them to a wake-up time slot") and writes the
/// result into `out`. No slot ever exceeds spec.max_parallel, every
/// client is placed and no server is empty (invariants property-tested).
/// O(1) in the fleet size and free of heap traffic: the per-cycle fast
/// path of every fleet sweep (docs/ARCHITECTURE.md). Throws
/// std::invalid_argument for negative `clients` or an unknown policy.
void allocate_compact_into(int clients, const ServerSpec& spec,
                           FillPolicy policy, CompactLayout& out);

}  // namespace beesim::core
