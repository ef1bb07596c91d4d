#include "core/allocator.hpp"

#include <initializer_list>
#include <stdexcept>

#include "obs/catalog.hpp"

namespace beesim::core {

const char* to_string(FillPolicy policy) noexcept {
  switch (policy) {
    case FillPolicy::kFillFirst: return "fill-first";
    case FillPolicy::kBalanced: return "balanced";
    case FillPolicy::kRoundRobin: return "round-robin";
  }
  return "?";
}

namespace {

/// `slots` consecutive slots each holding `clients_per_slot` clients.
struct Band {
  int clients_per_slot = 0;
  int slots = 0;
};

void record_allocation(const CompactLayout& layout, int clients) {
  if (!obs::enabled()) return;
  static auto& calls = obs::registry().counter(obs::metric::kAllocatorCalls);
  static auto& placed =
      obs::registry().counter(obs::metric::kAllocatorClientsPlaced);
  static auto& occupancy = obs::registry().histogram(
      obs::metric::kAllocatorSlotOccupancy, obs::slot_occupancy_bounds());
  calls.inc();
  placed.inc(static_cast<std::uint64_t>(clients));
  for (int c = 0; c < layout.class_count; ++c)
    for (int b = 0; b < layout.band_count[c]; ++b)
      if (layout.band_clients[c][b] > 0)
        occupancy.observe(static_cast<double>(layout.band_clients[c][b]),
                          static_cast<std::uint64_t>(layout.band_slots[c][b]) *
                              static_cast<std::uint64_t>(layout.servers[c]));
}

/// Appends one class as flat columns; bands with zero width are skipped.
void push_class(CompactLayout& out, std::int64_t servers,
                std::initializer_list<Band> bands) {
  const int c = out.class_count++;
  out.servers[c] = servers;
  int b = 0;
  for (const auto& band : bands) {
    if (band.slots <= 0) continue;
    out.band_clients[c][b] = band.clients_per_slot;
    out.band_slots[c][b] = band.slots;
    ++b;
  }
  out.band_count[c] = b;
}

void compact_fill_first(int clients, const ServerSpec& spec,
                        CompactLayout& out) {
  const int slots = spec.slots_per_cycle();
  const int m = spec.max_parallel;
  const int capacity = slots * m;
  const int full_servers = clients / capacity;
  const int remainder = clients % capacity;
  if (full_servers > 0) push_class(out, full_servers, {{m, slots}});
  if (remainder > 0)
    push_class(out, 1, {{m, remainder / m},
                        {remainder % m, remainder % m > 0 ? 1 : 0}});
}

/// Both spread policies land on the same occupancy: slot j (in
/// server-major order) holds base+1 clients if j < extra, else base.
/// kBalanced assigns that directly; kRoundRobin deals one client at a
/// time, which after `base` full passes leaves the first `extra` slots
/// one ahead — the identical layout.
void compact_spread(int clients, const ServerSpec& spec,
                    CompactLayout& out) {
  const int slots = spec.slots_per_cycle();
  const int capacity = slots * spec.max_parallel;
  // In 64 bits: within one server's capacity of INT_MAX, clients +
  // capacity - 1 overflows int.
  const std::int64_t servers =
      (static_cast<std::int64_t>(clients) + capacity - 1) / capacity;
  const std::int64_t total_slots = servers * slots;
  const int base = static_cast<int>(clients / total_slots);
  const auto extra = clients % total_slots;
  if (base + (extra > 0 ? 1 : 0) > spec.max_parallel)
    throw std::logic_error("allocate: balanced overflow");
  // Server-major layout: the first `extra` slots hold base+1 clients —
  // whole servers of base+1, at most one mixed boundary server, then
  // whole servers of base. When base == 0 the minimal server count
  // guarantees the trailing all-base class is empty (proved by the
  // no-empty-server allocator invariant, fuzz-tested).
  const auto extra_full = static_cast<int>(extra / slots);
  const auto extra_rem = static_cast<int>(extra % slots);
  if (extra_full > 0) push_class(out, extra_full, {{base + 1, slots}});
  if (extra_rem > 0)
    push_class(out, 1, {{base + 1, extra_rem}, {base, slots - extra_rem}});
  const std::int64_t rest = servers - extra_full - (extra_rem > 0 ? 1 : 0);
  if (rest > 0) push_class(out, rest, {{base, slots}});
}

}  // namespace

std::int64_t CompactLayout::servers_used() const noexcept {
  std::int64_t total = 0;
  for (int c = 0; c < class_count; ++c) total += servers[c];
  return total;
}

std::int64_t CompactLayout::total_clients() const noexcept {
  std::int64_t total = 0;
  for (int c = 0; c < class_count; ++c) {
    std::int64_t per_server = 0;
    for (int b = 0; b < band_count[c]; ++b)
      per_server += static_cast<std::int64_t>(band_clients[c][b]) *
                    static_cast<std::int64_t>(band_slots[c][b]);
    total += servers[c] * per_server;
  }
  return total;
}

std::int64_t CompactLayout::active_slots() const noexcept {
  std::int64_t total = 0;
  for (int c = 0; c < class_count; ++c) {
    std::int64_t active = 0;
    for (int b = 0; b < band_count[c]; ++b)
      if (band_clients[c][b] > 0) active += band_slots[c][b];
    total += servers[c] * active;
  }
  return total;
}

void allocate_compact_into(int clients, const ServerSpec& spec,
                           FillPolicy policy, CompactLayout& out) {
  out = CompactLayout{};
  if (clients < 0) throw std::invalid_argument("allocate: negative clients");
  if (clients == 0) return;
  switch (policy) {
    case FillPolicy::kFillFirst:
      compact_fill_first(clients, spec, out);
      break;
    case FillPolicy::kBalanced:
    case FillPolicy::kRoundRobin:
      compact_spread(clients, spec, out);
      break;
    default:
      throw std::invalid_argument("allocate: unknown policy");
  }
  record_allocation(out, clients);
}

}  // namespace beesim::core
