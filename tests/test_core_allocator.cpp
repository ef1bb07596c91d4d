#include <gtest/gtest.h>

#include <climits>
#include <cstdint>

#include "core/allocator.hpp"
#include "core/network_sim.hpp"
#include "core/server.hpp"
#include "fleet_oracle.hpp"

namespace core = beesim::core;
using core::FillPolicy;
using core::ServiceModel;

namespace {

core::ServerSpec cnn_server(int parallel = 10) {
  return core::ServerSpec::cloud_server(ServiceModel::kCnn, parallel);
}

core::CompactLayout layout_of(int clients, const core::ServerSpec& spec,
                              FillPolicy policy) {
  core::CompactLayout layout;
  core::allocate_compact_into(clients, spec, policy, layout);
  return layout;
}

/// The layout's per-slot vectors (oracle::expand).
beesim::oracle::Allocation expanded(int clients, const core::ServerSpec& spec,
                                    FillPolicy policy) {
  return beesim::oracle::expand(layout_of(clients, spec, policy));
}

}  // namespace

// --------------------------------------------------------------- ServerSpec

TEST(ServerSpec, CnnGeometryMatchesPaper) {
  const auto s = cnn_server(10);
  EXPECT_NEAR(s.slot_duration(10), 16.0, 1e-9);  // 15 s receive + 1 s CNN
  EXPECT_EQ(s.slots_per_cycle(), 18);
  EXPECT_EQ(s.capacity(), 180);
}

TEST(ServerSpec, SvmGeometry) {
  const auto s =
      core::ServerSpec::cloud_server(ServiceModel::kSvm, 10);
  EXPECT_NEAR(s.slot_duration(10), 15.1, 1e-9);
  EXPECT_EQ(s.slots_per_cycle(), 19);
  EXPECT_EQ(s.capacity(), 190);
}

TEST(ServerSpec, PaperSlotExampleOneMinuteSlotGivesFiveSlots) {
  // Paper: "given a data transfer and a model execution's duration of
  // 1 minute, a server can allow 5 time slots" in a 5-minute cycle.
  core::ServerSpec s = cnn_server();
  s.receive_time = 50.0;
  s.process_time = 10.0;
  EXPECT_EQ(s.slots_per_cycle(), 5);
}

TEST(ServerSpec, TransferStretchShrinksCapacity) {
  auto s = cnn_server(10);
  s.extra_transfer_per_client = 1.5;  // loss model B
  EXPECT_NEAR(s.planning_slot_duration(), 31.0, 1e-9);
  EXPECT_EQ(s.slots_per_cycle(), 9);
  EXPECT_EQ(s.capacity(), 90);
}

TEST(ServerSpec, SlotEnergyScalesWithStretchedTransfer) {
  auto s = cnn_server(10);
  const double base = s.slot_active_energy(10);
  s.extra_transfer_per_client = 1.5;
  EXPECT_GT(s.slot_active_energy(10), base);
  EXPECT_NEAR(s.slot_active_energy(0), base, 1e-9);  // no clients, no extra
}

TEST(ServerSpec, RejectsInvalidConfigs) {
  EXPECT_THROW(core::ServerSpec::cloud_server(ServiceModel::kNone, 10),
               std::invalid_argument);
  EXPECT_THROW(core::ServerSpec::cloud_server(ServiceModel::kCnn, 0),
               std::invalid_argument);
  auto s = cnn_server();
  s.receive_time = 400.0;  // slot longer than the cycle
  EXPECT_THROW(s.slots_per_cycle(), std::logic_error);
  EXPECT_THROW(s.slot_duration(-1), std::invalid_argument);
}

// ---------------------------------------------------------------- Allocator

class AllocatorPolicies : public ::testing::TestWithParam<FillPolicy> {};

/// Invariants that must hold for every policy and every fleet size:
/// all clients placed, no slot over max_parallel, no empty servers.
TEST_P(AllocatorPolicies, InvariantsHoldAcrossFleetSizes) {
  const auto spec = cnn_server(10);
  for (int n : {1, 5, 10, 11, 179, 180, 181, 360, 361, 999}) {
    const auto layout = layout_of(n, spec, GetParam());
    EXPECT_EQ(layout.total_clients(), n) << "policy "
                                         << core::to_string(GetParam())
                                         << " n=" << n;
    const int expected_servers = (n + spec.capacity() - 1) / spec.capacity();
    EXPECT_EQ(layout.servers_used(), expected_servers);
    const auto alloc = beesim::oracle::expand(layout);
    for (const auto& server : alloc.servers) {
      EXPECT_GT(server.total(), 0) << "empty server allocated";
      EXPECT_LE(static_cast<int>(server.slot_clients.size()),
                spec.slots_per_cycle());
      for (int k : server.slot_clients) {
        EXPECT_GE(k, 0);
        EXPECT_LE(k, spec.max_parallel);
      }
    }
  }
}

TEST_P(AllocatorPolicies, ZeroClientsNeedNoServers) {
  const auto layout = layout_of(0, cnn_server(), GetParam());
  EXPECT_EQ(layout.servers_used(), 0);
  EXPECT_EQ(layout.total_clients(), 0);
  EXPECT_TRUE(beesim::oracle::allocate(0, cnn_server(), GetParam())
                  .servers.empty());
}

/// The server count is ceil(n / capacity) in 64 bits: within one
/// server's capacity of INT_MAX, n + capacity - 1 overflows int.
TEST_P(AllocatorPolicies, ServerCountHoldsNearIntMax) {
  const auto spec = cnn_server(10);
  const int capacity = spec.capacity();
  for (int n : {INT_MAX, INT_MAX - capacity + 2}) {
    const auto layout = layout_of(n, spec, GetParam());
    EXPECT_EQ(layout.total_clients(), n) << "n=" << n;
    EXPECT_EQ(layout.servers_used(),
              (static_cast<std::int64_t>(n) + capacity - 1) / capacity)
        << "n=" << n;
  }
  core::FleetParams params = core::FleetParams::paper_default();
  params.policy = GetParam();
  EXPECT_EQ(core::LargeScaleSimulator(params)
                .simulate_ideal_cycle(INT_MAX)
                .servers_used,
            11930465);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, AllocatorPolicies,
                         ::testing::Values(FillPolicy::kFillFirst,
                                           FillPolicy::kBalanced,
                                           FillPolicy::kRoundRobin));

TEST(Allocator, FillFirstPacksSlotsToTheMax) {
  const auto alloc = expanded(25, cnn_server(10), FillPolicy::kFillFirst);
  ASSERT_EQ(alloc.servers_used(), 1);
  const auto& slots = alloc.servers.front().slot_clients;
  ASSERT_GE(slots.size(), 3u);
  EXPECT_EQ(slots[0], 10);
  EXPECT_EQ(slots[1], 10);
  EXPECT_EQ(slots[2], 5);
}

TEST(Allocator, BalancedSpreadsEvenly) {
  const auto alloc = expanded(36, cnn_server(10), FillPolicy::kBalanced);
  ASSERT_EQ(alloc.servers_used(), 1);
  const auto& slots = alloc.servers.front().slot_clients;
  ASSERT_EQ(slots.size(), 18u);
  for (int k : slots) EXPECT_EQ(k, 2);
}

TEST(Allocator, RoundRobinMatchesBalancedOccupancyWithinOne) {
  const auto rr = expanded(100, cnn_server(10), FillPolicy::kRoundRobin);
  const auto bal = expanded(100, cnn_server(10), FillPolicy::kBalanced);
  ASSERT_EQ(rr.servers_used(), bal.servers_used());
  for (std::size_t s = 0; s < rr.servers.size(); ++s) {
    for (std::size_t i = 0; i < rr.servers[s].slot_clients.size(); ++i) {
      EXPECT_NEAR(rr.servers[s].slot_clients[i],
                  bal.servers[s].slot_clients[i], 1.0);
    }
  }
}

TEST(Allocator, FillFirstActiveSlotsAreMinimal) {
  const auto layout = layout_of(45, cnn_server(10), FillPolicy::kFillFirst);
  EXPECT_EQ(layout.active_slots(), 5);  // ceil(45/10)
}

TEST(Allocator, ExactCapacityFitsOneServer) {
  const auto spec = cnn_server(10);
  EXPECT_EQ(layout_of(spec.capacity(), spec, FillPolicy::kFillFirst)
                .servers_used(),
            1);
  EXPECT_EQ(layout_of(spec.capacity() + 1, spec, FillPolicy::kFillFirst)
                .servers_used(),
            2);
}

TEST(Allocator, RejectsNegativeClients) {
  core::CompactLayout layout;
  EXPECT_THROW(core::allocate_compact_into(-1, cnn_server(),
                                           FillPolicy::kFillFirst, layout),
               std::invalid_argument);
}

TEST(Allocator, PolicyNames) {
  EXPECT_STREQ(core::to_string(FillPolicy::kFillFirst), "fill-first");
  EXPECT_STREQ(core::to_string(FillPolicy::kBalanced), "balanced");
  EXPECT_STREQ(core::to_string(FillPolicy::kRoundRobin), "round-robin");
}

// ---------------------------------------------------- Compact allocation

class CompactAllocatorPolicies
    : public ::testing::TestWithParam<FillPolicy> {};

/// The production layout against the vector oracle: for every policy and
/// fleet size, the O(1) histogram form expands to exactly the per-slot
/// vectors oracle::allocate builds — same servers, same slots, same
/// occupancies.
TEST_P(CompactAllocatorPolicies, ExpandsToExactVectorAllocation) {
  const auto spec = cnn_server(10);
  const int cap = spec.capacity();
  for (int n : {0, 1, 5, 9, 10, 11, 90, 179, 180, 181, 360, 361, 999,
                cap, cap + 1, 7 * cap, 7 * cap + 13}) {
    const auto layout = layout_of(n, spec, GetParam());
    const auto vec = beesim::oracle::allocate(n, spec, GetParam());
    SCOPED_TRACE(std::string("policy ") + core::to_string(GetParam()) +
                 " n=" + std::to_string(n));

    // Aggregates agree without expansion.
    EXPECT_EQ(layout.total_clients(), n);
    EXPECT_EQ(layout.servers_used(), vec.servers_used());
    std::int64_t vec_slots = 0;
    for (const auto& s : vec.servers) vec_slots += s.active_slots();
    EXPECT_EQ(layout.active_slots(), vec_slots);
    EXPECT_LE(layout.class_count, core::CompactLayout::kMaxClasses);

    // Expansion is bit-for-bit identical.
    const auto expanded = beesim::oracle::expand(layout);
    ASSERT_EQ(expanded.servers.size(), vec.servers.size());
    for (std::size_t s = 0; s < vec.servers.size(); ++s)
      EXPECT_EQ(expanded.servers[s].slot_clients,
                vec.servers[s].slot_clients) << "server " << s;
  }
}

TEST_P(CompactAllocatorPolicies, ZeroClientsYieldNoClasses) {
  const auto layout = layout_of(0, cnn_server(), GetParam());
  EXPECT_EQ(layout.class_count, 0);
  EXPECT_EQ(layout.servers_used(), 0);
  EXPECT_EQ(layout.total_clients(), 0);
  EXPECT_EQ(layout.active_slots(), 0);
  EXPECT_TRUE(beesim::oracle::expand(layout).servers.empty());
}

TEST_P(CompactAllocatorPolicies, MillionHiveFleetStaysTiny) {
  // The point of the histogram form: a million clients is still at most
  // three classes of at most two bands each.
  const auto spec = cnn_server(10);
  const int n = 1000000;
  const auto layout = layout_of(n, spec, GetParam());
  EXPECT_EQ(layout.total_clients(), n);
  EXPECT_EQ(layout.servers_used(),
            (n + spec.capacity() - 1) / spec.capacity());
  EXPECT_LE(layout.class_count, core::CompactLayout::kMaxClasses);
  for (int c = 0; c < layout.class_count; ++c)
    EXPECT_LE(layout.band_count[c], core::CompactLayout::kMaxBands);
}

TEST_P(CompactAllocatorPolicies, RejectsNegativeClients) {
  core::CompactLayout layout;
  EXPECT_THROW(core::allocate_compact_into(-1, cnn_server(), GetParam(),
                                           layout),
               std::invalid_argument);
  EXPECT_THROW(beesim::oracle::allocate(-1, cnn_server(), GetParam()),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CompactAllocatorPolicies,
                         ::testing::Values(FillPolicy::kFillFirst,
                                           FillPolicy::kBalanced,
                                           FillPolicy::kRoundRobin));

TEST(CompactAllocator, FillFirstRemainderBandsMatchHandComputation) {
  // 25 clients, 10 per slot: two full slots and a 5-client slot on one
  // server.
  const auto layout = layout_of(25, cnn_server(10), FillPolicy::kFillFirst);
  ASSERT_EQ(layout.class_count, 1);
  EXPECT_EQ(layout.servers[0], 1);
  ASSERT_EQ(layout.band_count[0], 2);
  EXPECT_EQ(layout.band_clients[0][0], 10);
  EXPECT_EQ(layout.band_slots[0][0], 2);
  EXPECT_EQ(layout.band_clients[0][1], 5);
  EXPECT_EQ(layout.band_slots[0][1], 1);
}

TEST(CompactAllocator, BalancedKeepsZeroBandsForEmptySlots) {
  // 4 clients spread over 18 slots: 4 slots of 1 plus 14 empty slots,
  // matching oracle::allocate's padded vectors.
  const auto alloc = expanded(4, cnn_server(10), FillPolicy::kBalanced);
  ASSERT_EQ(alloc.servers.size(), 1u);
  EXPECT_EQ(alloc.servers.front().slot_clients.size(), 18u);
  EXPECT_EQ(alloc.servers.front().active_slots(), 4);
}
