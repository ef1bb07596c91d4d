#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <vector>

#include "core/canonical.hpp"
#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "fault/fault.hpp"
#include "obs/catalog.hpp"
#include "serve/cache.hpp"
#include "serve/mpsc_queue.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace core = beesim::core;
namespace fault = beesim::fault;
namespace serve = beesim::serve;
using serve::Admission;
using serve::Request;
using serve::RequestKind;
using serve::Response;
using serve::SimulationService;

namespace {

// Bit-identity comparisons are field-wise with exact floating-point
// equality (memcmp would read indeterminate padding bytes).
void expect_stats_identical(const beesim::util::RunningStats& a,
                            const beesim::util::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.sample_stddev(), b.sample_stddev());
}

void expect_points_identical(const core::SweepPoint& a,
                             const core::SweepPoint& b) {
  EXPECT_EQ(a.initial_clients, b.initial_clients);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.servers_used, b.servers_used);
  expect_stats_identical(a.lost_clients, b.lost_clients);
  expect_stats_identical(a.active_slots, b.active_slots);
  expect_stats_identical(a.edge_energy, b.edge_energy);
  expect_stats_identical(a.cloud_energy, b.cloud_energy);
  expect_stats_identical(a.total_energy, b.total_energy);
}

void expect_points_identical(const core::ResiliencePoint& a,
                             const core::ResiliencePoint& b) {
  EXPECT_EQ(a.initial_clients, b.initial_clients);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.servers_used, b.servers_used);
  EXPECT_EQ(a.degraded_cycles, b.degraded_cycles);
  EXPECT_EQ(a.edge_fallback_cycles, b.edge_fallback_cycles);
  EXPECT_EQ(a.fallback_client_cycles, b.fallback_client_cycles);
  EXPECT_EQ(a.shed_client_cycles, b.shed_client_cycles);
  expect_stats_identical(a.lost_clients, b.lost_clients);
  expect_stats_identical(a.total_energy, b.total_energy);
  EXPECT_EQ(a.bytes_generated, b.bytes_generated);
  EXPECT_EQ(a.bytes_served, b.bytes_served);
  EXPECT_EQ(a.bytes_dropped, b.bytes_dropped);
}

core::FleetParams lossy_fleet() {
  core::FleetParams params = core::FleetParams::paper_default();
  params.loss = core::LossConfig::all();
  return params;
}

Request sweep_request(std::vector<int> counts, int cycles = 3,
                      std::uint64_t seed = 7, std::uint64_t tenant = 0) {
  serve::SweepRequest r;
  r.params = lossy_fleet();
  r.client_counts = std::move(counts);
  r.cycles_per_point = cycles;
  r.seed = seed;
  return Request::make_sweep(std::move(r), tenant);
}

Request what_if_request(std::vector<int> counts) {
  serve::WhatIfRequest w;
  w.params = lossy_fleet();
  w.client_counts = std::move(counts);
  w.cycles_per_point = 3;
  w.seed = 7;
  return Request::make_what_if(std::move(w));
}

Request resilience_request(std::vector<int> counts) {
  serve::ResilienceRequest r;
  r.params = core::FleetParams::paper_default();
  r.plan = fault::FaultPlan::random_outages(11, 40, 0.25, 4);
  r.client_counts = std::move(counts);
  r.cycles_per_point = 40;
  r.seed = 9;
  return Request::make_resilience(std::move(r));
}

/// Payload equality of two responses, field for field; the `from_cache`
/// provenance flags are not compared.
void expect_same_payload(const Response& a, const Response& b) {
  ASSERT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.points_total, b.points_total);
  ASSERT_EQ(a.sweep_points.size(), b.sweep_points.size());
  for (std::size_t i = 0; i < a.sweep_points.size(); ++i)
    expect_points_identical(a.sweep_points[i].point, b.sweep_points[i].point);
  ASSERT_EQ(a.what_if.size(), b.what_if.size());
  for (std::size_t i = 0; i < a.what_if.size(); ++i) {
    const auto& x = a.what_if[i].comparison;
    const auto& y = b.what_if[i].comparison;
    EXPECT_EQ(x.clients, y.clients);
    EXPECT_EQ(x.edge_only_per_client, y.edge_only_per_client);
    EXPECT_EQ(x.edge_cloud_per_client, y.edge_cloud_per_client);
    EXPECT_EQ(x.edge_cloud_wins, y.edge_cloud_wins);
  }
  ASSERT_EQ(a.resilience_points.size(), b.resilience_points.size());
  for (std::size_t i = 0; i < a.resilience_points.size(); ++i)
    expect_points_identical(a.resilience_points[i].point,
                            b.resilience_points[i].point);
}

bool ready(const std::future<Response>& response) {
  return response.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

/// Turns metrics on with every instrument at zero for one test and
/// restores the previous toggle on exit.
class ObsOn {
 public:
  ObsOn() : previous_(beesim::obs::enabled()) {
    beesim::obs::set_enabled(true);
    beesim::obs::register_catalog(beesim::obs::registry());
    beesim::obs::registry().reset_values();
  }
  ~ObsOn() { beesim::obs::set_enabled(previous_); }
  ObsOn(const ObsOn&) = delete;
  ObsOn& operator=(const ObsOn&) = delete;

 private:
  bool previous_;
};

SimulationService::Config manual_config() {
  SimulationService::Config config;
  config.workers = 0;  // deterministic: nothing runs until drain()
  return config;
}

void expect_balanced_and_drained(const SimulationService& service) {
  const auto ledger = service.ledger();
  EXPECT_TRUE(ledger.balanced());
  EXPECT_EQ(ledger.in_flight(), 0);
  EXPECT_EQ(ledger.submitted, ledger.admitted + ledger.rejected);
}

}  // namespace

// ----------------------------------------------------------- canonical hash

TEST(CanonicalHash, EqualParamsHashEqual) {
  const core::FleetParams a = lossy_fleet();
  const core::FleetParams b = lossy_fleet();
  EXPECT_EQ(core::canonical_hash(a), core::canonical_hash(b));
  EXPECT_EQ(core::canonical_hash(a).to_string(),
            core::canonical_hash(b).to_string());
}

TEST(CanonicalHash, EveryFieldPerturbsTheHash) {
  const core::Hash128 base = core::canonical_hash(lossy_fleet());

  core::FleetParams p = lossy_fleet();
  p.client.sleep_power += 1e-9;
  EXPECT_NE(core::canonical_hash(p), base);

  p = lossy_fleet();
  p.server.max_parallel += 1;
  EXPECT_NE(core::canonical_hash(p), base);

  p = lossy_fleet();
  p.policy = core::FillPolicy::kBalanced;
  EXPECT_NE(core::canonical_hash(p), base);

  p = lossy_fleet();
  p.loss.dropout_mean_fraction += 1e-12;
  EXPECT_NE(core::canonical_hash(p), base);
}

TEST(CanonicalHash, DistinguishesSignedZero) {
  core::CanonicalHasher pos, neg;
  pos.f64(0.0);
  neg.f64(-0.0);
  EXPECT_NE(pos.digest(), neg.digest());
}

TEST(CanonicalHash, TagPreventsFieldAliasing) {
  // Same byte budget, different boundaries: (tag, "ab") vs (tag, "a", "b").
  core::CanonicalHasher one, two;
  one.str("ab");
  two.str("a");
  two.str("b");
  EXPECT_NE(one.digest(), two.digest());
}

// The word-wise identity, pinned: any change to the serialization or to
// the fold moves these digests, and with them every cache key and
// checkpoint params hash — which is a checkpoint version bump, never a
// silent edit.
TEST(CanonicalHash, GoldenDigestsPinTheIdentity) {
  EXPECT_EQ(core::CanonicalHasher{}.digest().to_string(),
            "1df2044a5d6c89fd.46b73e79f0c37c00");

  // bytes() over the first n of 0xa0, 0xa1, ...: empty, partial tails,
  // one full word, and a word plus partial tails.
  const char* const kPrefixDigests[] = {
      "1df2044a5d6c89fd.46b73e79f0c37c00",  // 0
      "f956a6826841026d.4471604e93b7370e",  // 1
      "80f97eda0f62cf83.70cee970a8215a99",  // 2
      "14c363faf97c5b5b.dd24b27524e8184d",  // 3
      "ccc6638a62066dbe.09fdf03a8e0a31bd",  // 4
      "e3c417690f0a603c.c6bfba6e5290bafd",  // 5
      "93f916a0e83fbf82.7eba5e9c9676c0d5",  // 6
      "d559ce257b63fbca.4ecf66d9add6e164",  // 7
      "61fc1cca80795b6c.04923ff478816a95",  // 8
      "60ffe19bcc25dbb4.5a0fce947df48b25",  // 9
      "a43b3fd977807799.f4347bd74863033c",  // 10
      "c12e0a7927f1160b.02f398c675b497d1",  // 11
      "28d06751409317e6.77a597284894cf73",  // 12
      "3b3a5f418ef08c1f.04b54d9e482a1352",  // 13
      "b87dcd76e71826e7.9db0682bfaba8044",  // 14
      "f9c5a201e977fcc5.bac3eb67e2569284",  // 15
      "bf7aafbe9342073a.4994a845b897acdb",  // 16
      "f548e3d33f8abd2a.75006a1343c71396",  // 17
  };
  unsigned char stream[17];
  for (int i = 0; i < 17; ++i) stream[i] = static_cast<unsigned char>(0xa0 + i);
  for (std::size_t n = 0; n <= 17; ++n) {
    core::CanonicalHasher h;
    h.bytes(stream, n);
    EXPECT_EQ(h.digest().to_string(), kPrefixDigests[n]) << n << " bytes";
  }

  core::FleetParams paper = core::FleetParams::paper_default();
  paper.loss = core::LossConfig::none();
  EXPECT_EQ(core::canonical_hash(paper).to_string(),
            "18b52f984f535267.4c64439faf3e3a50");
  paper.loss = core::LossConfig::all();
  EXPECT_EQ(core::canonical_hash(paper).to_string(),
            "da1951ae100e7b6b.072b4d166a520af2");

  EXPECT_EQ(serve::scenario_group(sweep_request({100})).to_string(),
            "a496e38aab4a753a.2d779497295fbc5a");
  EXPECT_EQ(serve::scenario_group(resilience_request({100})).to_string(),
            "07528b0ddb0b9224.cc3b01e90fdd5673");
}

TEST(CanonicalHash, DigestIgnoresHowCallsCutTheStream) {
  // Random byte strings fed once through one bytes() call and once cut at
  // random points into tag / u64 / bytes calls: every cut must land on
  // the same digest. This walks every partial-word offset of the tail
  // shifting, including the carry-nothing case a `>> 64` would break.
  beesim::util::Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 64));
    std::vector<unsigned char> stream(n);
    for (auto& b : stream)
      b = static_cast<unsigned char>(rng.uniform_int(0, 255));
    core::CanonicalHasher whole;
    whole.bytes(stream.data(), n);

    core::CanonicalHasher cut;
    std::size_t at = 0;
    while (at < n) {
      const std::size_t left = n - at;
      const auto call = rng.uniform_int(0, 2);
      if (call == 0) {
        cut.tag(stream[at]);
        at += 1;
      } else if (call == 1 && left >= 8) {
        std::uint64_t word = 0;
        for (int i = 0; i < 8; ++i)
          word |= std::uint64_t{stream[at + static_cast<std::size_t>(i)]}
                  << (8 * i);
        cut.u64(word);
        at += 8;
      } else {
        const auto len = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(left)));
        cut.bytes(stream.data() + at, len);
        at += len;
      }
    }
    ASSERT_EQ(cut.digest().to_string(), whole.digest().to_string())
        << "trial " << trial << ", " << n << " bytes";
  }
}

TEST(CanonicalHash, TrailingZeroBytesMoveTheDigest) {
  // The zero-padded tail word alone cannot tell "ab" from "ab\0"; the
  // byte count folded into the digest does.
  const unsigned char bytes[9] = {'a', 'b'};
  core::Hash128 previous = core::CanonicalHasher{}.digest();
  for (std::size_t n = 1; n <= 9; ++n) {
    core::CanonicalHasher h;
    h.bytes(bytes, n);
    EXPECT_NE(h.digest(), previous) << n << " bytes";
    previous = h.digest();
  }
}

// ------------------------------------------------------------ scenario group

TEST(ScenarioGroup, WhatIfSharesSweepGroup) {
  const Request s = sweep_request({100, 200});
  serve::WhatIfRequest w;
  w.params = lossy_fleet();
  w.client_counts = {100, 200};
  w.cycles_per_point = 3;
  w.seed = 7;
  const Request wi = Request::make_what_if(std::move(w));
  EXPECT_EQ(serve::scenario_group(s), serve::scenario_group(wi));
}

TEST(ScenarioGroup, IndependentOfTenantAndCounts) {
  EXPECT_EQ(serve::scenario_group(sweep_request({100}, 3, 7, 1)),
            serve::scenario_group(sweep_request({900}, 3, 7, 2)));
  EXPECT_NE(serve::scenario_group(sweep_request({100}, 3, 7)),
            serve::scenario_group(sweep_request({100}, 3, 8)));
  EXPECT_NE(serve::scenario_group(sweep_request({100}, 3, 7)),
            serve::scenario_group(sweep_request({100}, 4, 7)));
}

TEST(ScenarioGroup, ResilienceFoldsPlanAndPolicy) {
  serve::ResilienceRequest r;
  r.params = core::FleetParams::paper_default();
  r.plan = fault::FaultPlan::random_outages(11, 50, 0.2, 4);
  r.client_counts = {100};
  r.cycles_per_point = 50;
  const Request a = Request::make_resilience(r);

  serve::ResilienceRequest r2 = r;
  r2.plan = fault::FaultPlan::random_outages(12, 50, 0.2, 4);
  EXPECT_NE(serve::scenario_group(a),
            serve::scenario_group(Request::make_resilience(r2)));

  serve::ResilienceRequest r3 = r;
  r3.policy.edge_fallback = false;
  EXPECT_NE(serve::scenario_group(a),
            serve::scenario_group(Request::make_resilience(r3)));
}

// ------------------------------------------------------------------ MpscRing

TEST(MpscRing, FifoAndBounded) {
  serve::MpscRing<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full fails, never blocks
  int out = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
  // Freed cells are reusable in the next epoch.
  EXPECT_TRUE(ring.try_push(5));
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 5);
}

TEST(MpscRing, ConcurrentProducersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  serve::MpscRing<int> ring(8192);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i)
        while (!ring.try_push(p * kPerProducer + i)) std::this_thread::yield();
    });
  for (auto& t : producers) t.join();

  std::vector<int> seen;
  int out = -1;
  while (ring.try_pop(out)) seen.push_back(out);
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  std::sort(seen.begin(), seen.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) EXPECT_EQ(seen[i], i);
}

// ------------------------------------------------------------------- service

TEST(SimulationService, SweepMatchesDirectSimulator) {
  SimulationService service(manual_config());
  const std::vector<int> counts{100, 300, 500};
  auto ticket = service.submit(sweep_request(counts));
  ASSERT_EQ(ticket.admission, Admission::kAdmitted);
  service.drain();
  const Response response = ticket.response.get();

  const core::LargeScaleSimulator sim(lossy_fleet());
  const auto direct = sim.sweep(counts, 7, 3, 1);
  ASSERT_EQ(response.sweep_points.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_FALSE(response.sweep_points[i].from_cache);
    expect_points_identical(response.sweep_points[i].point, direct[i]);
  }
  expect_balanced_and_drained(service);
}

TEST(SimulationService, CacheHitIsBitIdenticalToColdCompute) {
  SimulationService service(manual_config());
  auto cold = service.submit(sweep_request({200, 400}));
  service.drain();
  const Response cold_response = cold.response.get();

  auto warm = service.submit(sweep_request({200, 400}));
  service.drain();
  const Response warm_response = warm.response.get();

  ASSERT_EQ(warm_response.sweep_points.size(), 2u);
  EXPECT_EQ(warm_response.points_from_cache, 2);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(warm_response.sweep_points[i].from_cache);
    expect_points_identical(warm_response.sweep_points[i].point,
                            cold_response.sweep_points[i].point);
  }
  const auto stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(SimulationService, WhatIfSharesSweepCacheAndDerivesVerdict) {
  SimulationService service(manual_config());
  auto sweep_ticket = service.submit(sweep_request({630}));
  service.drain();
  const core::SweepPoint point =
      sweep_ticket.response.get().sweep_points[0].point;

  serve::WhatIfRequest w;
  w.params = lossy_fleet();
  w.client_counts = {630};
  w.cycles_per_point = 3;
  w.seed = 7;
  w.service = core::ServiceModel::kCnn;
  auto ticket = service.submit(Request::make_what_if(std::move(w)));
  service.drain();
  const Response response = ticket.response.get();

  ASSERT_EQ(response.what_if.size(), 1u);
  EXPECT_TRUE(response.what_if[0].from_cache);  // shared the sweep's point
  const auto& comparison = response.what_if[0].comparison;
  EXPECT_EQ(comparison.clients, 630);
  const double edge_only =
      core::ClientSpec::smart_beehive(core::Placement::kEdgeOnly,
                                      core::ServiceModel::kCnn, 300.0)
          .cycle_energy();
  EXPECT_EQ(comparison.edge_only_per_client, edge_only);
  EXPECT_EQ(comparison.edge_cloud_per_client, point.total_per_client());
  EXPECT_EQ(comparison.edge_cloud_wins,
            comparison.edge_cloud_per_client < comparison.edge_only_per_client);
}

TEST(SimulationService, ResilienceMatchesDirectFleet) {
  serve::ResilienceRequest r;
  r.params = core::FleetParams::paper_default();
  r.plan = fault::FaultPlan::random_outages(11, 40, 0.25, 4);
  r.client_counts = {150, 350};
  r.cycles_per_point = 40;
  r.seed = 9;

  SimulationService service(manual_config());
  auto ticket = service.submit(Request::make_resilience(r));
  service.drain();
  const Response response = ticket.response.get();

  const core::ResilientFleet fleet(r.params, r.plan, r.policy, r.service);
  const auto direct = fleet.sweep(r.client_counts, r.seed, r.cycles_per_point, 1);
  ASSERT_EQ(response.resilience_points.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    expect_points_identical(response.resilience_points[i].point, direct[i]);

  // Second submission: everything from cache, still bit-identical.
  auto warm = service.submit(Request::make_resilience(r));
  service.drain();
  const Response warm_response = warm.response.get();
  EXPECT_EQ(warm_response.points_from_cache, 2);
  for (std::size_t i = 0; i < direct.size(); ++i)
    expect_points_identical(warm_response.resilience_points[i].point,
                            direct[i]);
  expect_balanced_and_drained(service);
}

TEST(SimulationService, CoalescesOverlappingRequestsInOneBatch) {
  SimulationService service(manual_config());
  // Three tenants ask overlapping fleet sizes of the same scenario before
  // any processing happens: the union {100, 200, 300} is computed once.
  auto t1 = service.submit(sweep_request({100, 200}, 3, 7, 1));
  auto t2 = service.submit(sweep_request({200, 300}, 3, 7, 2));
  auto t3 = service.submit(sweep_request({100, 300}, 3, 7, 3));
  service.drain();

  const core::LargeScaleSimulator sim(lossy_fleet());
  const auto direct = sim.sweep({100, 200, 300}, 7, 3, 1);
  const Response r1 = t1.response.get();
  const Response r2 = t2.response.get();
  const Response r3 = t3.response.get();
  expect_points_identical(r1.sweep_points[0].point, direct[0]);
  expect_points_identical(r1.sweep_points[1].point, direct[1]);
  expect_points_identical(r2.sweep_points[0].point, direct[1]);
  expect_points_identical(r2.sweep_points[1].point, direct[2]);
  expect_points_identical(r3.sweep_points[0].point, direct[0]);
  expect_points_identical(r3.sweep_points[1].point, direct[2]);
  // Only three unique points exist despite six requested.
  EXPECT_EQ(service.cache_stats().entries, 3u);
}

TEST(SimulationService, InvalidRequestsRejectTyped) {
  SimulationService service(manual_config());
  auto empty = service.submit(sweep_request({}));
  EXPECT_EQ(empty.admission, Admission::kRejectedInvalid);
  auto negative = service.submit(sweep_request({-5}));
  EXPECT_EQ(negative.admission, Admission::kRejectedInvalid);
  auto zero_cycles = service.submit(sweep_request({100}, 0));
  EXPECT_EQ(zero_cycles.admission, Admission::kRejectedInvalid);
  EXPECT_FALSE(zero_cycles.response.valid());  // no future on reject
  service.drain();
  expect_balanced_and_drained(service);
  EXPECT_EQ(service.ledger().rejected, 3u);
}

TEST(SimulationService, ParamsTheSimulatorsCannotRunAreRejectedAtAdmission) {
  // Each of these used to be admitted and then take the whole process
  // down on a worker: max_parallel = 0 divides by zero in the allocator
  // (SIGFPE), and the others throw out of process_batch, which
  // terminates a threaded service.
  SimulationService::Config config;
  config.workers = 1;
  SimulationService service(config);

  std::vector<Request> bad;
  const auto bad_sweep = [&](void (*edit)(core::FleetParams&)) {
    Request r = sweep_request({100});
    edit(r.sweep.params);
    bad.push_back(std::move(r));
  };
  bad_sweep([](core::FleetParams& p) { p.server.max_parallel = 0; });
  bad_sweep([](core::FleetParams& p) { p.server.max_parallel = -3; });
  bad_sweep([](core::FleetParams& p) { p.server.cycle = 600.0; });
  bad_sweep([](core::FleetParams& p) { p.client.sleep_power = std::nan(""); });
  bad_sweep([](core::FleetParams& p) { p.server.process_time = 400.0; });
  {
    Request r = what_if_request({100});
    r.what_if.params.server.max_parallel = 0;
    bad.push_back(std::move(r));
  }
  {
    Request r = what_if_request({100});
    r.what_if.service = core::ServiceModel::kNone;
    bad.push_back(std::move(r));
  }
  {
    Request r = resilience_request({100});
    r.resilience.params.server.max_parallel = 0;
    bad.push_back(std::move(r));
  }
  {
    Request r = resilience_request({100});
    r.resilience.policy.upload_bytes_per_client = 0.0;
    bad.push_back(std::move(r));
  }
  {
    Request r = resilience_request({100});
    r.resilience.service = core::ServiceModel::kNone;
    bad.push_back(std::move(r));
  }
  const auto rejected = bad.size();
  for (auto& request : bad) {
    auto ticket = service.submit(std::move(request));
    EXPECT_EQ(ticket.admission, Admission::kRejectedInvalid);
    EXPECT_FALSE(ticket.response.valid());
  }

  // The service is still up: a valid request is answered by the worker.
  auto good = service.submit(sweep_request({100}));
  ASSERT_EQ(good.admission, Admission::kAdmitted);
  ASSERT_EQ(good.response.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  const Response response = good.response.get();
  const auto direct =
      core::LargeScaleSimulator(lossy_fleet()).sweep({100}, 7, 3, 1);
  ASSERT_EQ(response.sweep_points.size(), 1u);
  expect_points_identical(response.sweep_points[0].point, direct[0]);

  service.shutdown();
  expect_balanced_and_drained(service);
  EXPECT_EQ(service.ledger().rejected, rejected);
  EXPECT_EQ(service.ledger().completed, 1u);
}

TEST(SimulationService, FaultGeometryAndEdgeOnlyRoutinesAreCheckedAtAdmission) {
  // Each of these passed admission and then threw on the worker, which
  // terminates a threaded service: a degraded link that leaves 1 % of the
  // bandwidth (ResilientFleet's sibling slot no longer fits the cycle),
  // and a 100 s period the edge+cloud routine fits but the 113 s
  // edge-only CNN routine does not (the resilience fallback prices it in
  // ResilientFleet's constructor, the what-if verdict in its fan-out).
  SimulationService::Config config;
  config.workers = 1;
  SimulationService service(config);

  std::vector<Request> bad;
  {
    Request r = resilience_request({100});
    r.resilience.plan = fault::FaultPlan();
    r.resilience.plan.add({fault::FaultKind::kLinkDegraded, 3, 5, 0.01});
    bad.push_back(std::move(r));
  }
  const core::FleetParams short_period =
      core::FleetParams::paper_default(core::ServiceModel::kCnn, 10, 100.0);
  {
    Request r = resilience_request({100});
    r.resilience.params = short_period;
    bad.push_back(std::move(r));
  }
  {
    Request r = what_if_request({100});
    r.what_if.params = short_period;
    bad.push_back(std::move(r));
  }
  for (auto& request : bad) {
    auto ticket = service.submit(std::move(request));
    EXPECT_EQ(ticket.admission, Admission::kRejectedInvalid);
    EXPECT_FALSE(ticket.response.valid());
  }

  // The service is still up: a valid resilience request is computed by
  // the worker, bit-identical to a direct sweep.
  auto good = service.submit(resilience_request({100, 200}));
  ASSERT_EQ(good.admission, Admission::kAdmitted);
  ASSERT_EQ(good.response.wait_for(std::chrono::seconds(60)),
            std::future_status::ready);
  const Response response = good.response.get();
  const Request reference = resilience_request({100, 200});
  const auto direct =
      core::ResilientFleet(reference.resilience.params,
                           reference.resilience.plan)
          .sweep({100, 200}, reference.resilience.seed,
                 reference.resilience.cycles_per_point, 1);
  ASSERT_EQ(response.resilience_points.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    expect_points_identical(response.resilience_points[i].point, direct[i]);

  service.shutdown();
  expect_balanced_and_drained(service);
  EXPECT_EQ(service.ledger().rejected, bad.size());
  EXPECT_EQ(service.ledger().completed, 1u);
}

TEST(SimulationService, QueueFullRejectsTyped) {
  SimulationService::Config config = manual_config();
  config.queue_capacity = 2;  // tiny ring, nothing drains it
  SimulationService service(config);
  int admitted = 0, queue_full = 0;
  std::vector<SimulationService::Ticket> tickets;
  for (int i = 0; i < 6; ++i) {
    tickets.push_back(service.submit(sweep_request({10 + i}, 1)));
    if (tickets.back().admission == Admission::kAdmitted) ++admitted;
    if (tickets.back().admission == Admission::kRejectedQueueFull)
      ++queue_full;
  }
  EXPECT_EQ(admitted, 2);
  EXPECT_EQ(queue_full, 4);
  service.drain();
  expect_balanced_and_drained(service);
}

TEST(SimulationService, OverloadRejectsTyped) {
  SimulationService::Config config = manual_config();
  config.max_in_flight = 3;
  SimulationService service(config);
  std::vector<SimulationService::Ticket> tickets;
  for (int i = 0; i < 5; ++i)
    tickets.push_back(service.submit(sweep_request({20 + i}, 1)));
  EXPECT_EQ(tickets[2].admission, Admission::kAdmitted);
  EXPECT_EQ(tickets[3].admission, Admission::kRejectedOverloaded);
  EXPECT_EQ(tickets[4].admission, Admission::kRejectedOverloaded);
  service.drain();
  // Capacity freed by completion: the next submit is admitted again.
  auto after = service.submit(sweep_request({99}, 1));
  EXPECT_EQ(after.admission, Admission::kAdmitted);
  service.drain();
  expect_balanced_and_drained(service);
}

TEST(SimulationService, ShutdownRejectsNewWorkButFulfilsQueued) {
  SimulationService service(manual_config());
  auto queued = service.submit(sweep_request({120}, 1));
  ASSERT_EQ(queued.admission, Admission::kAdmitted);
  service.shutdown();  // drains queued work before stopping
  EXPECT_EQ(queued.response.get().sweep_points.size(), 1u);
  auto late = service.submit(sweep_request({130}, 1));
  EXPECT_EQ(late.admission, Admission::kRejectedShutdown);
  expect_balanced_and_drained(service);
}

TEST(SimulationService, CacheDisabledStillCorrect) {
  SimulationService::Config config = manual_config();
  config.cache_enabled = false;
  SimulationService service(config);
  auto first = service.submit(sweep_request({250}));
  service.drain();
  auto second = service.submit(sweep_request({250}));
  EXPECT_FALSE(ready(second.response));  // no cache: never answered at submit
  service.drain();
  const Response a = first.response.get();
  const Response b = second.response.get();
  EXPECT_FALSE(a.sweep_points[0].from_cache);
  EXPECT_FALSE(b.sweep_points[0].from_cache);  // recomputed, not cached
  expect_points_identical(a.sweep_points[0].point, b.sweep_points[0].point);
  EXPECT_EQ(service.cache_stats().entries, 0u);
}

TEST(SimulationService, DeterministicAcrossWorkerCounts) {
  const std::vector<int> counts{100, 200, 300, 400};
  std::vector<Response> responses;
  for (unsigned workers : {1u, 4u}) {
    SimulationService::Config config;
    config.workers = workers;
    SimulationService service(config);
    std::vector<SimulationService::Ticket> tickets;
    for (std::uint64_t tenant = 0; tenant < 6; ++tenant)
      tickets.push_back(service.submit(sweep_request(counts, 3, 7, tenant)));
    for (auto& ticket : tickets) {
      ASSERT_EQ(ticket.admission, Admission::kAdmitted);
      responses.push_back(ticket.response.get());
    }
    service.shutdown();
    expect_balanced_and_drained(service);
  }
  // 12 responses (6 per worker count), all bit-identical.
  for (std::size_t i = 1; i < responses.size(); ++i)
    for (std::size_t p = 0; p < counts.size(); ++p)
      expect_points_identical(responses[i].sweep_points[p].point,
                              responses[0].sweep_points[p].point);
}

TEST(SimulationService, ConcurrentTenantsShareCacheAndBalanceLedger) {
  SimulationService::Config config;
  config.workers = 3;
  SimulationService service(config);

  constexpr int kTenants = 8;
  constexpr int kRequestsPerTenant = 5;
  std::atomic<int> mismatches{0};
  const core::LargeScaleSimulator sim(lossy_fleet());
  const auto expected = sim.sweep({150, 250}, 7, 3, 1);

  std::vector<std::thread> tenants;
  for (int t = 0; t < kTenants; ++t)
    tenants.emplace_back([&service, &expected, &mismatches, t] {
      for (int i = 0; i < kRequestsPerTenant; ++i) {
        auto ticket = service.submit(
            sweep_request({150, 250}, 3, 7, static_cast<std::uint64_t>(t)));
        if (ticket.admission != Admission::kAdmitted) continue;
        const Response response = ticket.response.get();
        for (std::size_t p = 0; p < expected.size(); ++p) {
          const auto& got = response.sweep_points[p].point;
          if (got.total_energy.sum() != expected[p].total_energy.sum() ||
              got.servers_used != expected[p].servers_used)
            mismatches.fetch_add(1);
        }
      }
    });
  for (auto& t : tenants) t.join();
  service.shutdown();

  EXPECT_EQ(mismatches.load(), 0);
  expect_balanced_and_drained(service);
  const auto ledger = service.ledger();
  EXPECT_EQ(ledger.submitted,
            static_cast<std::uint64_t>(kTenants * kRequestsPerTenant));
  // 40 requests over one scenario with two fleet sizes: exactly two
  // entries exist, and far more hits than computes.
  EXPECT_EQ(service.cache_stats().entries, 2u);
  EXPECT_GT(service.cache_stats().hits, 0u);
}

TEST(SimulationService, SubmitAnswersFullyCachedRequestsOfEveryKind) {
  for (const Request& request :
       {sweep_request({100, 300}), what_if_request({100, 300}),
        resilience_request({150, 350})}) {
    SCOPED_TRACE(serve::to_string(request.kind));
    SimulationService service(manual_config());
    auto cold = service.submit(request);
    ASSERT_EQ(cold.admission, Admission::kAdmitted);
    EXPECT_FALSE(ready(cold.response));  // a miss waits for drain()
    service.drain();
    const Response cold_response = cold.response.get();
    EXPECT_EQ(cold_response.points_from_cache, 0);

    auto warm = service.submit(request);
    ASSERT_EQ(warm.admission, Admission::kAdmitted);
    ASSERT_TRUE(ready(warm.response));  // answered with no drain()
    const auto ledger = service.ledger();
    EXPECT_EQ(ledger.admitted, 2u);
    EXPECT_EQ(ledger.completed, ledger.admitted);
    EXPECT_EQ(ledger.in_flight(), 0);
    const Response warm_response = warm.response.get();
    EXPECT_EQ(warm_response.points_total, 2);
    EXPECT_EQ(warm_response.points_from_cache, warm_response.points_total);
    for (const auto& p : warm_response.sweep_points) EXPECT_TRUE(p.from_cache);
    for (const auto& p : warm_response.what_if) EXPECT_TRUE(p.from_cache);
    for (const auto& p : warm_response.resilience_points)
      EXPECT_TRUE(p.from_cache);
    expect_same_payload(warm_response, cold_response);
  }
}

TEST(SimulationService, PartiallyCachedRequestGoesToTheWorker) {
  SimulationService service(manual_config());
  auto warmup = service.submit(sweep_request({100, 200}));
  service.drain();
  warmup.response.get();
  const auto before = service.cache_stats();

  // 100 is cached, 300 is not: submit() stops there and hands the whole
  // request to the worker, counting nothing.
  const std::vector<int> counts{100, 300, 200};
  auto ticket = service.submit(sweep_request(counts));
  ASSERT_EQ(ticket.admission, Admission::kAdmitted);
  EXPECT_FALSE(ready(ticket.response));
  const auto at_submit = service.cache_stats();
  EXPECT_EQ(at_submit.hits, before.hits);
  EXPECT_EQ(at_submit.misses, before.misses);
  EXPECT_EQ(service.ledger().in_flight(), 1);

  service.drain();
  const Response response = ticket.response.get();
  const auto direct =
      core::LargeScaleSimulator(lossy_fleet()).sweep(counts, 7, 3, 1);
  ASSERT_EQ(response.sweep_points.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i)
    expect_points_identical(response.sweep_points[i].point, direct[i]);
  EXPECT_TRUE(response.sweep_points[0].from_cache);
  EXPECT_FALSE(response.sweep_points[1].from_cache);
  EXPECT_TRUE(response.sweep_points[2].from_cache);
  EXPECT_EQ(response.points_from_cache, 2);
  const auto after = service.cache_stats();
  EXPECT_EQ(after.hits, before.hits + 2);
  EXPECT_EQ(after.misses, before.misses + 1);
  expect_balanced_and_drained(service);
}

TEST(SimulationService, AnsweredRequestReservesInFlightButNoRingSlot) {
  // A full ring does not stop a fully cached request...
  SimulationService::Config config = manual_config();
  config.queue_capacity = 2;
  SimulationService service(config);
  auto warmup = service.submit(sweep_request({100}));
  service.drain();
  warmup.response.get();
  EXPECT_EQ(service.submit(sweep_request({201}, 1)).admission,
            Admission::kAdmitted);
  EXPECT_EQ(service.submit(sweep_request({202}, 1)).admission,
            Admission::kAdmitted);
  EXPECT_EQ(service.submit(sweep_request({203}, 1)).admission,
            Admission::kRejectedQueueFull);
  auto cached = service.submit(sweep_request({100}));
  ASSERT_EQ(cached.admission, Admission::kAdmitted);
  EXPECT_TRUE(ready(cached.response));
  service.drain();
  expect_balanced_and_drained(service);

  // ...but the in-flight bound does.
  config.queue_capacity = 1024;
  config.max_in_flight = 1;
  SimulationService bounded(config);
  auto warm = bounded.submit(sweep_request({100}));
  bounded.drain();
  warm.response.get();
  auto queued = bounded.submit(sweep_request({201}, 1));
  ASSERT_EQ(queued.admission, Admission::kAdmitted);
  EXPECT_EQ(bounded.submit(sweep_request({100})).admission,
            Admission::kRejectedOverloaded);
  bounded.drain();
  auto after = bounded.submit(sweep_request({100}));
  ASSERT_EQ(after.admission, Admission::kAdmitted);
  EXPECT_TRUE(ready(after.response));
  expect_balanced_and_drained(bounded);
}

TEST(SimulationService, ObsCountsEveryPointOnceOnBothRoutes) {
  namespace m = beesim::obs::metric;
  const ObsOn obs_on;
  SimulationService service(manual_config());
  auto cold = service.submit(sweep_request({100, 200}));  // worker: 2 misses
  service.drain();
  auto sweep = service.submit(sweep_request({100, 200}));  // submit: 2 hits
  auto what_if = service.submit(what_if_request({200}));   // submit: 1 hit
  // One worker batch of two: 200 hits, 300 misses, the second 300 is
  // coalesced into the first one's compute.
  auto partial = service.submit(sweep_request({200, 300}));
  auto coalesced = service.submit(sweep_request({300}));
  EXPECT_TRUE(ready(sweep.response));
  EXPECT_TRUE(ready(what_if.response));
  EXPECT_FALSE(ready(partial.response));
  service.drain();
  for (auto* ticket : {&cold, &sweep, &what_if, &partial, &coalesced})
    ticket->response.get();

  const auto snap = beesim::obs::registry().snapshot();
  const auto counter = [&snap](const char* name) {
    return snap.counters.at(name);
  };
  EXPECT_EQ(counter(m::kServeRequestsAnsweredAtSubmit), 2u);
  EXPECT_EQ(counter(m::kServeRequestsAdmitted), 5u);
  EXPECT_EQ(counter(m::kServeRequestsCompleted), 5u);
  EXPECT_EQ(counter(m::kServePointsRequested), 8u);
  EXPECT_EQ(counter(m::kServeCacheHits), 4u);
  EXPECT_EQ(counter(m::kServeCacheMisses), 3u);
  EXPECT_EQ(counter(m::kServePointsCoalesced), 1u);
  EXPECT_EQ(counter(m::kServePointsComputed), 3u);
  EXPECT_EQ(counter(m::kServePointsRequested),
            counter(m::kServeCacheHits) + counter(m::kServeCacheMisses) +
                counter(m::kServePointsCoalesced));
  // The cache's own counters agree with the service's.
  EXPECT_EQ(service.cache_stats().hits, 4u);
  EXPECT_EQ(service.cache_stats().misses, 3u);
  // Two worker batches, of one and two requests; answered requests are
  // not batches.
  const auto& width = snap.histograms.at(m::kServeBatchWidth);
  EXPECT_EQ(width.count, 2u);
  EXPECT_EQ(width.sum, 3.0);
}

TEST(SimulationService, EveryQueuedRequestWakesItsWorker) {
  // Sequential round trips on one worker, each request a miss, so each
  // push must wake a worker that has gone to sleep on an empty ring. The
  // worker has no timed poll: a lost wake-up fails the bounded wait
  // instead of hanging (shutdown() still drains the stranded request).
  SimulationService::Config config;
  config.workers = 1;
  config.cache_capacity = 1024;
  SimulationService service(config);
  constexpr int kRoundTrips = 20000;
  int stranded = 0, cached = 0;
  for (int i = 0; i < kRoundTrips && stranded == 0; ++i) {
    auto ticket = service.submit(
        sweep_request({100}, 1, 1000 + static_cast<std::uint64_t>(i)));
    ASSERT_EQ(ticket.admission, Admission::kAdmitted);
    if (ticket.response.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      ++stranded;
      continue;
    }
    cached += ticket.response.get().points_from_cache;
  }
  EXPECT_EQ(stranded, 0);
  EXPECT_EQ(cached, 0);  // every request missed and took the worker path
  service.shutdown();
  expect_balanced_and_drained(service);
  EXPECT_EQ(service.ledger().completed,
            static_cast<std::uint64_t>(kRoundTrips));
}

TEST(PointCache, FirstWriterWinsAndCounts) {
  serve::PointCache cache(4);
  const serve::PointKey key{core::Hash128{1, 2}, 100};
  core::SweepPoint point;
  point.initial_clients = 100;
  EXPECT_FALSE(cache.lookup_sweep(key, &point));  // miss counted
  cache.insert_sweep(key, point);
  core::SweepPoint again;
  again.initial_clients = 999;  // a duplicate insert must not overwrite
  cache.insert_sweep(key, again);
  core::SweepPoint out;
  ASSERT_TRUE(cache.lookup_sweep(key, &out));
  EXPECT_EQ(out.initial_clients, 100);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_ratio(), 0.5);
}

TEST(PointCache, CapacityBoundEvictsAndCounts) {
  // 2 shards x 4 per shard: the 9th distinct key must evict. Before the
  // capacity bound, a long-lived service leaked one entry per novel
  // scenario forever (the never-evicts bug this suite regressed on).
  serve::PointCache cache(2, 8);
  EXPECT_EQ(cache.capacity(), 8u);
  core::SweepPoint point;
  for (int i = 0; i < 64; ++i) {
    const serve::PointKey key{core::Hash128{static_cast<std::uint64_t>(i),
                                            0xabcdefULL},
                              10 * i};
    point.initial_clients = 10 * i;
    cache.insert_sweep(key, point);
    EXPECT_LE(cache.stats().entries, 8u) << "after insert " << i;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 8u);
  EXPECT_EQ(stats.evictions, 64u - 8u);
}

TEST(PointCache, RecomputedEvictedPointIsBitIdentical) {
  // The determinism contract that makes eviction safe: dropping an entry
  // and recomputing it from the simulator reproduces the exact bytes the
  // cache held, because every point derives from its own (seed, fleet
  // size) RNG stream.
  core::FleetParams fleet = core::FleetParams::paper_default();
  fleet.loss = core::LossConfig::all();
  const core::LargeScaleSimulator sim(fleet);
  const auto first = sim.sweep({120}, 5, 4, 1);

  serve::PointCache cache(1, 2);  // tiny: two entries, then CLOCK
  const serve::PointKey key{core::Hash128{7, 9}, 120};
  cache.insert_sweep(key, first[0]);
  for (int i = 0; i < 8; ++i) {  // flood until `key` is evicted
    const serve::PointKey other{core::Hash128{100 + static_cast<std::uint64_t>(i), 1}, i};
    core::SweepPoint filler;
    cache.insert_sweep(other, filler);
  }
  core::SweepPoint out;
  ASSERT_FALSE(cache.lookup_sweep(key, &out)) << "flood did not evict";

  const auto recomputed = sim.sweep({120}, 5, 4, 1);
  expect_points_identical(recomputed[0], first[0]);
  cache.insert_sweep(key, recomputed[0]);
  ASSERT_TRUE(cache.lookup_sweep(key, &out));
  expect_points_identical(out, first[0]);
}

TEST(PointCache, CapacityZeroNeverEvicts) {
  serve::PointCache cache(2, 0);
  core::SweepPoint point;
  for (int i = 0; i < 500; ++i) {
    const serve::PointKey key{core::Hash128{static_cast<std::uint64_t>(i), 3}, i};
    cache.insert_sweep(key, point);
  }
  EXPECT_EQ(cache.stats().entries, 500u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(PointCache, ClockKeepsRecentlyUsedEntries) {
  // One shard, capacity 2: touch A on every round while inserting new
  // keys — the second-chance bit must keep A resident while the
  // untouched keys cycle out.
  serve::PointCache cache(1, 2);
  const serve::PointKey hot{core::Hash128{1, 1}, 1};
  core::SweepPoint point;
  cache.insert_sweep(hot, point);
  core::SweepPoint out;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cache.lookup_sweep(hot, &out)) << "round " << i;
    const serve::PointKey cold{core::Hash128{50 + static_cast<std::uint64_t>(i), 2}, i};
    cache.insert_sweep(cold, point);
  }
  EXPECT_TRUE(cache.lookup_sweep(hot, &out));
}

TEST(PointCache, ShardSelectionIsNearUniform) {
  // The shard selector re-mixes the bucket hash (PointCache::shard_mix);
  // with the raw bucket hash reused for both, each shard's map saw only
  // keys congruent to its own index and most buckets sat empty. Assert
  // the occupancy of every shard stays within 50% of the uniform share
  // across distinct realistic keys.
  const std::size_t kShards = 16;
  const int kKeys = 4096;
  serve::PointCache cache(kShards, 0);
  core::SweepPoint point;
  int inserted = 0;
  for (int g = 0; g < kKeys / 8; ++g) {
    core::CanonicalHasher hasher;
    hasher.i64(g);
    const core::Hash128 group = hasher.digest();
    for (int n = 100; n <= 800; n += 100) {
      cache.insert_sweep(serve::PointKey{group, n}, point);
      ++inserted;
    }
  }
  const auto occupancy = cache.shard_occupancy();
  ASSERT_EQ(occupancy.size(), kShards);
  const double share = static_cast<double>(inserted) /
                       static_cast<double>(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(static_cast<double>(occupancy[s]), share * 0.5)
        << "shard " << s << " starved";
    EXPECT_LT(static_cast<double>(occupancy[s]), share * 1.5)
        << "shard " << s << " overloaded";
  }
}

TEST(PointCache, TtlExpiresOnLookupAndCountsSeparately) {
  // Injected clock: entries older than the TTL expire lazily on lookup,
  // counted as expirations (not evictions) and as misses.
  double now = 0.0;
  serve::PointCache cache(1, 8, /*ttl_seconds=*/10.0,
                          [&now] { return now; });
  EXPECT_DOUBLE_EQ(cache.ttl_seconds(), 10.0);
  const serve::PointKey key{core::Hash128{3, 4}, 200};
  core::SweepPoint point;
  point.initial_clients = 200;
  cache.insert_sweep(key, point);

  core::SweepPoint out;
  now = 9.99;  // just inside the TTL: still a hit
  ASSERT_TRUE(cache.lookup_sweep(key, &out));
  EXPECT_EQ(out.initial_clients, 200);

  now = 10.0;  // now - inserted_at == ttl: expired
  EXPECT_FALSE(cache.lookup_sweep(key, &out));
  auto stats = cache.stats();
  EXPECT_EQ(stats.expirations, 1u);
  EXPECT_EQ(stats.evictions, 0u);  // expiry is not a capacity eviction
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);  // the expired lookup counts as a miss

  // The freed ring slot is recycled: a new insert reuses it and the
  // re-inserted entry gets a fresh timestamp.
  cache.insert_sweep(key, point);
  ASSERT_TRUE(cache.lookup_sweep(key, &out));
  now = 19.0;  // 9 s after re-insert: still fresh
  ASSERT_TRUE(cache.lookup_sweep(key, &out));
  now = 25.0;
  EXPECT_FALSE(cache.lookup_sweep(key, &out));
  EXPECT_EQ(cache.stats().expirations, 2u);
}

TEST(PointCache, TtlZeroNeverExpires) {
  double now = 0.0;
  serve::PointCache cache(1, 8, /*ttl_seconds=*/0.0,
                          [&now] { return now; });
  const serve::PointKey key{core::Hash128{5, 6}, 300};
  core::SweepPoint point;
  cache.insert_sweep(key, point);
  now = 1e12;  // thirty thousand years later
  core::SweepPoint out;
  EXPECT_TRUE(cache.lookup_sweep(key, &out));
  EXPECT_EQ(cache.stats().expirations, 0u);
}

TEST(PointCache, TtlExpiryComposesWithClockEviction) {
  // Expired slots go through the free list, invisible to the CLOCK hand;
  // capacity eviction keeps working on the remaining residents, and the
  // two counters never mix.
  double now = 0.0;
  serve::PointCache cache(1, 4, /*ttl_seconds=*/5.0,
                          [&now] { return now; });
  core::SweepPoint point;
  for (int i = 0; i < 4; ++i) {
    const serve::PointKey key{
        core::Hash128{static_cast<std::uint64_t>(i), 8}, i};
    cache.insert_sweep(key, point);
  }
  EXPECT_EQ(cache.stats().entries, 4u);

  // Expire two of the four; their slots land on the free list.
  now = 6.0;
  core::SweepPoint out;
  for (int i = 0; i < 2; ++i) {
    const serve::PointKey key{
        core::Hash128{static_cast<std::uint64_t>(i), 8}, i};
    EXPECT_FALSE(cache.lookup_sweep(key, &out));
  }
  EXPECT_EQ(cache.stats().expirations, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);

  // The next two inserts recycle the freed slots (no evictions yet);
  // the one after that is back at capacity and must evict via CLOCK.
  for (int i = 10; i < 13; ++i) {
    const serve::PointKey key{
        core::Hash128{static_cast<std::uint64_t>(i), 9}, i};
    cache.insert_sweep(key, point);
    if (i < 12) {
      EXPECT_EQ(cache.stats().evictions, 0u) << "insert " << i;
    }
  }
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.stats().expirations, 2u);
}

TEST(PointCache, TtlAppliesToResiliencePoints) {
  double now = 0.0;
  serve::PointCache cache(1, 8, /*ttl_seconds=*/3.0,
                          [&now] { return now; });
  const serve::PointKey key{core::Hash128{9, 9}, 50};
  core::ResiliencePoint point;
  cache.insert_resilience(key, point);
  core::ResiliencePoint out;
  ASSERT_TRUE(cache.lookup_resilience(key, &out));
  now = 3.5;
  EXPECT_FALSE(cache.lookup_resilience(key, &out));
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(PointCache, TtlZeroNeverReadsTheClock) {
  int reads = 0;
  serve::PointCache cache(2, 0, /*ttl_seconds=*/0.0, [&reads] {
    ++reads;
    return 0.0;
  });
  core::SweepPoint sweep;
  core::ResiliencePoint resilience;
  for (int i = 0; i < 8; ++i) {
    const serve::PointKey key{core::Hash128{static_cast<std::uint64_t>(i), 1},
                              i};
    cache.insert_sweep(key, sweep);
    cache.insert_resilience(key, resilience);
    EXPECT_TRUE(cache.lookup_sweep(key, &sweep));
    EXPECT_TRUE(cache.lookup_resilience(key, &resilience));
    const serve::PointKey absent{core::Hash128{99, 99}, i};
    EXPECT_FALSE(cache.lookup_sweep(absent, &sweep));
  }
  EXPECT_EQ(reads, 0);
}

TEST(PointCache, ExpiredEntryFallsThroughAndRecomputesBitIdentically) {
  // The service's two lookups in their order: submit()'s uncounted peek
  // finds the stale entry, expires it and falls through; the worker's
  // counted lookup then misses, and the recompute reproduces the expired
  // bytes. One expiration in all.
  const core::LargeScaleSimulator sim(lossy_fleet());
  const core::SweepPoint first = sim.sweep({120}, 5, 4, 1)[0];
  double now = 0.0;
  serve::PointCache cache(1, 8, /*ttl_seconds=*/10.0, [&now] { return now; });
  const serve::PointKey key{core::Hash128{7, 9}, 120};
  core::SweepPoint out;
  EXPECT_FALSE(cache.peek(key, &out));
  cache.insert_sweep(key, first);
  core::ResiliencePoint other_kind;
  EXPECT_FALSE(cache.peek(key, &other_kind));
  ASSERT_TRUE(cache.peek(key, &out));
  expect_points_identical(out, first);

  now = 10.0;
  EXPECT_FALSE(cache.peek(key, &out));
  auto stats = cache.stats();
  EXPECT_EQ(stats.expirations, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);  // no peek, found or not, is counted
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_FALSE(cache.lookup_sweep(key, &out));
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.expirations, 1u);

  const core::SweepPoint recomputed = sim.sweep({120}, 5, 4, 1)[0];
  expect_points_identical(recomputed, first);
  cache.insert_sweep(key, recomputed);
  ASSERT_TRUE(cache.peek(key, &out));
  expect_points_identical(out, first);
  EXPECT_EQ(cache.stats().expirations, 1u);
}
