// serve_hot and serve_cold: closed-loop tenants against
// serve::SimulationService, plus the serve-layer probes.

#include <algorithm>
#include <array>
#include <future>
#include <optional>
#include <string>
#include <thread>

#include "common.hpp"
#include "serve/service.hpp"

namespace perfbench {
namespace {

using namespace beesim;

// serving_load's request shape: a sweep : what-if : resilience = 3 : 1 : 1
// mix over 3 scenarios, 3-point windows on a 6-point grid and 300
// Monte-Carlo cycles per point, from 4 closed-loop tenants against 2
// service workers.
constexpr int kTenants = 4;
constexpr unsigned kServiceWorkers = 2;
constexpr std::size_t kScenarios = 3;
constexpr int kGridPoints = 6;
constexpr int kWindowPoints = 3;
constexpr int kCyclesPerPoint = 300;
/// serve_cold's cache bound, far below the distinct points one run asks
/// for.
constexpr std::size_t kColdCacheCapacity = 1024;
/// serve_hot's requests share this many seeds, so its working set is 36
/// points per seed. Many rather than one: with a single seed, where its 36
/// keys fell among the cache shards moved throughput by up to 20% from
/// one workload seed to the next.
constexpr std::uint64_t kHotSeeds = 16;
/// Responses per tenant kept, reservoir-sampled over the window, for the
/// field-for-field check against a direct sweep.
constexpr std::size_t kSamplesPerTenant = 16;
/// Requests per tenant in the untimed pass of each setup.
constexpr std::uint64_t kWarmupRequests = 500;

// Tenant ids by phase. serve_cold derives each request's seed from
// (workload seed, tenant, index), so distinct ids keep the phases' keys
// apart.
constexpr int kWindowTenant = 0;
constexpr int kObsTenant = 10;
constexpr int kPrefillTenant = 100;
constexpr int kWarmupTenant = 200;
constexpr int kProbeTenant = 300;

constexpr std::uint64_t kTagHot = 0x686f74;
constexpr std::uint64_t kTagCold = 0x636f6c64;
constexpr std::uint64_t kTagPlan = 0x706c616e;
constexpr std::uint64_t kTagTenant = 0x74656e;
constexpr std::uint64_t kTagProbe = 0x70726f62;

/// serving_load's scenario pool: paper-default fleets that differ in
/// server capacity and loss configuration.
core::FleetParams scenario_params(std::size_t scenario) {
  const int max_parallel = scenario % 2 == 0 ? 10 : 35;
  core::FleetParams params = core::FleetParams::paper_default(
      core::ServiceModel::kCnn, max_parallel);
  if (scenario % 3 == 1) params.loss = core::LossConfig::all();
  if (scenario % 3 == 2) params.loss = core::LossConfig::only_dropout();
  return params;
}

/// The request mix of one workload seed.
class Mix {
 public:
  Mix(std::uint64_t workload_seed, bool hot)
      : seed_(workload_seed), hot_(hot) {
    for (std::size_t s = 0; s < kScenarios; ++s) {
      params_[s] = scenario_params(s);
      plans_[s] = fault::FaultPlan::random_outages(
          derive(workload_seed, kTagPlan, s), 20, 0.2, 3);
    }
  }

  bool hot() const { return hot_; }

  /// Request `index` of tenant `tenant`, as serving_load builds it.
  /// serve_hot takes one of kHotSeeds shared seeds, so every request falls
  /// in the prefilled working set; serve_cold gives each request its own
  /// seed, so no two requests share a key.
  serve::Request request(int tenant, std::uint64_t index) const {
    const auto t = static_cast<std::uint64_t>(tenant);
    const auto scenario =
        static_cast<std::size_t>((t * 31 + index) % kScenarios);
    const auto start = static_cast<int>(
        (t + index) %
        static_cast<std::uint64_t>(kGridPoints - kWindowPoints + 1));
    std::vector<int> counts;
    for (int i = 0; i < kWindowPoints; ++i)
      counts.push_back(100 * (start + i + 1));
    const std::uint64_t seed = hot_ ? derive(seed_, kTagHot, index % kHotSeeds)
                                    : derive(seed_, kTagCold, t, index);
    return make(scenario, index % 5, std::move(counts), seed, t);
  }

  /// serve_hot's working set: per seed and scenario, a sweep and a
  /// resilience request over the whole grid.
  std::vector<serve::Request> working_set() const {
    std::vector<int> grid;
    for (int i = 1; i <= kGridPoints; ++i) grid.push_back(100 * i);
    std::vector<serve::Request> out;
    for (std::uint64_t k = 0; k < kHotSeeds; ++k)
      for (std::size_t s = 0; s < kScenarios; ++s) {
        out.push_back(make(s, 0, grid, derive(seed_, kTagHot, k), 0));
        out.push_back(make(s, 4, grid, derive(seed_, kTagHot, k), 0));
      }
    return out;
  }

 private:
  // `kind` is serving_load's index % 5: 0-2 sweep, 3 what-if, 4 resilience.
  serve::Request make(std::size_t scenario, std::uint64_t kind,
                      std::vector<int> counts, std::uint64_t seed,
                      std::uint64_t tenant) const {
    if (kind == 3) {
      serve::WhatIfRequest r;
      r.params = params_[scenario];
      r.client_counts = std::move(counts);
      r.cycles_per_point = kCyclesPerPoint;
      r.seed = seed;
      return serve::Request::make_what_if(std::move(r), tenant);
    }
    if (kind == 4) {
      serve::ResilienceRequest r;
      r.params = params_[scenario];
      r.plan = plans_[scenario];
      r.client_counts = std::move(counts);
      r.cycles_per_point = kCyclesPerPoint;
      r.seed = seed;
      return serve::Request::make_resilience(std::move(r), tenant);
    }
    serve::SweepRequest r;
    r.params = params_[scenario];
    r.client_counts = std::move(counts);
    r.cycles_per_point = kCyclesPerPoint;
    r.seed = seed;
    return serve::Request::make_sweep(std::move(r), tenant);
  }

  std::uint64_t seed_;
  bool hot_;
  std::array<core::FleetParams, kScenarios> params_;
  std::array<fault::FaultPlan, kScenarios> plans_;
};

serve::SimulationService::Config service_config(bool hot) {
  serve::SimulationService::Config c;
  c.workers = kServiceWorkers;
  if (!hot) c.cache_capacity = kColdCacheCapacity;
  return c;
}

/// Submits a burst and waits for every admitted response.
void submit_all(serve::SimulationService& svc,
                std::vector<serve::Request> requests) {
  std::vector<std::future<serve::Response>> pending;
  for (serve::Request& q : requests) {
    auto ticket = svc.submit(std::move(q));
    if (ticket.admitted()) pending.push_back(std::move(ticket.response));
  }
  for (auto& f : pending) f.get();
}

/// serve_hot computes its whole working set; serve_cold fills its bounded
/// cache to capacity with points no later request asks for.
void prefill(serve::SimulationService& svc, const Mix& mix) {
  if (mix.hot()) {
    submit_all(svc, mix.working_set());
    return;
  }
  std::uint64_t index = 0;
  while (svc.cache_stats().entries < kColdCacheCapacity &&
         index < 64 * kColdCacheCapacity) {
    std::vector<serve::Request> burst;
    for (int k = 0; k < 32; ++k)
      burst.push_back(mix.request(kPrefillTenant, index++));
    submit_all(svc, std::move(burst));
  }
}

struct Sampled {
  serve::Request request;
  serve::Response response;
};

struct Tenant {
  OpLog log;
  std::vector<Sampled> samples;
  util::Rng rng;
  std::uint64_t seen = 0;
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t malformed = 0;
  std::uint64_t errors = 0;
};

bool well_formed(serve::RequestKind kind, std::size_t points,
                 const serve::Response& p) {
  if (p.kind != kind || p.points_total != static_cast<int>(points))
    return false;
  switch (kind) {
    case serve::RequestKind::kSweep:
      return p.sweep_points.size() == points;
    case serve::RequestKind::kWhatIf:
      return p.what_if.size() == points;
    case serve::RequestKind::kResilience:
      return p.resilience_points.size() == points;
  }
  return false;
}

enum SpanName { kRequestSpan, kSubmitSpan, kWaitSpan };
const std::vector<std::string> kSpanNames = {"bench.request", "serve.submit",
                                             "serve.wait"};

/// One closed-loop tenant: build the next request, submit it, wait for
/// the response, repeat — until the window closes, or for `requests`
/// requests when there is no window.
void tenant_loop(serve::SimulationService& svc, const Mix& mix, int id,
                 Tenant& st, const Window* w, std::uint64_t requests,
                 Tracer* tracer, unsigned lane) {
  for (std::uint64_t index = 0; w != nullptr ? w->open() : index < requests;
       ++index) {
    const auto tb = Clock::now();
    serve::Request request = mix.request(id, index);
    const serve::RequestKind kind = request.kind;
    const std::size_t points = request.client_counts().size();
    // Reservoir sampling, decided before submit so the request is kept.
    std::size_t slot = kSamplesPerTenant;
    if (w != nullptr) {
      ++st.seen;
      if (st.samples.size() < kSamplesPerTenant) {
        slot = st.samples.size();
      } else {
        const auto j = static_cast<std::size_t>(
            st.rng.uniform_int(0, static_cast<std::int64_t>(st.seen) - 1));
        if (j < kSamplesPerTenant) slot = j;
      }
    }
    std::optional<serve::Request> kept;
    if (slot < kSamplesPerTenant) kept = request;
    ++st.attempted;
    try {
      const auto t0 = Clock::now();
      auto ticket = svc.submit(std::move(request));
      const auto t1 = Clock::now();
      if (!ticket.admitted()) {
        ++st.rejected;
        continue;
      }
      serve::Response response = ticket.response.get();
      const auto t2 = Clock::now();
      if (w != nullptr) st.log.add(*w, t0, t2);
      if (tracer != nullptr)
        tracer->record(lane, index, kRequestSpan, tb, t2,
                       {{kSubmitSpan, t0, t1}, {kWaitSpan, t1, t2}});
      if (!well_formed(kind, points, response)) ++st.malformed;
      if (kept) {
        Sampled s{std::move(*kept), std::move(response)};
        if (slot == st.samples.size())
          st.samples.push_back(std::move(s));
        else
          st.samples[slot] = std::move(s);
      }
    } catch (const std::exception&) {
      ++st.errors;
    }
  }
}

struct Drive {
  std::vector<Tenant> tenants;
  std::optional<Window> window;

  std::vector<const OpLog*> logs() const {
    std::vector<const OpLog*> out;
    for (const Tenant& t : tenants) out.push_back(&t.log);
    return out;
  }
  double ops() const {
    std::uint64_t n = 0;
    for (const Tenant& t : tenants) n += t.log.ops;
    return static_cast<double>(n);
  }
  double units_per_s() const { return units_per_second(logs(), *window); }
};

/// Runs `count` tenant threads with ids from `id_base`: for `seconds`
/// when positive (a timed window), else `requests` requests each.
Drive drive(serve::SimulationService& svc, const Mix& mix, std::uint64_t seed,
            int count, int id_base, double seconds, std::uint64_t requests,
            Tracer* tracer) {
  Drive d;
  d.tenants.resize(static_cast<std::size_t>(count));
  for (int t = 0; t < count; ++t)
    d.tenants[static_cast<std::size_t>(t)].rng = util::Rng(
        derive(seed, kTagTenant, static_cast<std::uint64_t>(id_base + t)));
  if (seconds > 0.0) d.window.emplace(seconds);
  const Window* w = d.window ? &*d.window : nullptr;
  std::vector<std::thread> threads;
  for (int t = 0; t < count; ++t)
    threads.emplace_back([&, t] {
      tenant_loop(svc, mix, id_base + t,
                  d.tenants[static_cast<std::size_t>(t)], w, requests, tracer,
                  static_cast<unsigned>(t));
    });
  for (std::thread& th : threads) th.join();
  return d;
}

/// The sampled response against a direct LargeScaleSimulator::sweep or
/// ResilientFleet::sweep, field for field. A nonzero `seed_offset` feeds
/// the check a wrong reference.
bool matches_direct(const Sampled& s, std::uint64_t seed_offset) {
  const serve::Request& q = s.request;
  if (!well_formed(q.kind, q.client_counts().size(), s.response))
    return false;
  switch (q.kind) {
    case serve::RequestKind::kSweep: {
      const serve::SweepRequest& r = q.sweep;
      const auto direct = core::LargeScaleSimulator(r.params).sweep(
          r.client_counts, r.seed + seed_offset, r.cycles_per_point, 1);
      for (std::size_t i = 0; i < direct.size(); ++i)
        if (fields(s.response.sweep_points[i].point) != fields(direct[i]))
          return false;
      return true;
    }
    case serve::RequestKind::kWhatIf: {
      const serve::WhatIfRequest& r = q.what_if;
      const auto direct = core::LargeScaleSimulator(r.params).sweep(
          r.client_counts, r.seed + seed_offset, r.cycles_per_point, 1);
      const double edge_only =
          core::ClientSpec::smart_beehive(core::Placement::kEdgeOnly,
                                          r.service, r.params.client.period)
              .cycle_energy();
      for (std::size_t i = 0; i < direct.size(); ++i) {
        const core::PlacementComparison& c = s.response.what_if[i].comparison;
        const double edge_cloud = direct[i].total_per_client();
        if (c.clients != r.client_counts[i] ||
            c.edge_only_per_client != edge_only ||
            c.edge_cloud_per_client != edge_cloud ||
            c.edge_cloud_wins != (edge_cloud < edge_only))
          return false;
      }
      return true;
    }
    case serve::RequestKind::kResilience: {
      const serve::ResilienceRequest& r = q.resilience;
      const auto direct =
          core::ResilientFleet(r.params, r.plan, r.policy, r.service)
              .sweep(r.client_counts, r.seed + seed_offset,
                     r.cycles_per_point, 1);
      for (std::size_t i = 0; i < direct.size(); ++i)
        if (fields(s.response.resilience_points[i].point) != fields(direct[i]))
          return false;
      return true;
    }
  }
  return false;
}

void add_span_latency(Result& r, const Tracer& tracer,
                      const std::string& basis) {
  std::vector<double> submit = tracer.durations_us(kSubmitSpan);
  std::vector<double> wait = tracer.durations_us(kWaitSpan);
  std::sort(submit.begin(), submit.end());
  std::sort(wait.begin(), wait.end());
  add(r, "serve.submit_us_p50", "us", sorted_percentile(submit, 0.50),
      submit.size(), "SimulationService::submit; " + basis);
  add(r, "serve.wait_us_p50", "us", sorted_percentile(wait, 0.50),
      wait.size(), "submit returning to future::get returning; " + basis);
  add(r, "serve.wait_us_p99", "us", sorted_percentile(wait, 0.99),
      wait.size(), "submit returning to future::get returning; " + basis);
}

}  // namespace

Result run_serve(const Options& o, bool hot) {
  Result r;
  const Mix mix(o.seed, hot);
  serve::SimulationService svc(service_config(hot));
  prefill(svc, mix);
  // The untimed pass.
  drive(svc, mix, o.seed, kTenants, kWarmupTenant, 0.0, kWarmupRequests,
        nullptr);
  r.setup_seconds = seconds_between(kProcessStart, Clock::now());
  if (o.setup_only) return r;
  const serve::PointCache::Stats cache_before = svc.cache_stats();

  std::vector<Drive> timed;
  timed.reserve(2);
  if (!o.trace) {
    timed.push_back(drive(svc, mix, o.seed, kTenants, kWindowTenant,
                          o.seconds, 0, nullptr));
    const Drive& d = timed.back();
    r.metrics.push_back(peak_rss_metric());
    r.metrics.push_back(throughput_metric(
        d.logs(), *d.window,
        "requests per second from 4 closed-loop tenants; median of 10 "
        "slices"));
    for (Metric& m :
         latency_metrics(d.logs(), "requests, submit to response ready"))
      r.metrics.push_back(m);
  } else {
    Tracer tracer(kSpanNames, kTenants);
    const auto pool = util::TaskPool::instance().stats();
    timed.push_back(drive(svc, mix, o.seed, kTenants, kWindowTenant,
                          o.seconds / 2, 0, &tracer));
    add_pool_counts(r, pool, timed[0].ops());
    ObsWindow obs;
    timed.push_back(drive(svc, mix, o.seed, kTenants, kObsTenant,
                          o.seconds / 2, 0, nullptr));
    obs.finish(r, timed[1].ops(), timed[0].units_per_s(),
               timed[1].units_per_s());
    add_span_latency(r, tracer, "span half (obs off)");
    if (!tracer.write_chrome_trace(trace_path(o)))
      r.checks.push_back("n/a   could not write " + trace_path(o));
    r.self_time = tracer.self_time_table();
  }
  const serve::PointCache::Stats cache_after = svc.cache_stats();

  // Output checks, outside the timed window. shutdown() joins the
  // workers, so every completion is counted before the ledger is read.
  svc.shutdown();
  const auto ledger = svc.ledger();
  const std::int64_t want_in_flight = o.wrong_reference ? 1 : 0;
  const bool ledger_ok =
      ledger.balanced() && ledger.in_flight() == want_in_flight;
  check(r, ledger_ok,
        "ledger balances: " + std::to_string(ledger.submitted) +
            " submitted = admitted + rejected, in_flight() == 0");
  std::uint64_t attempted = 0, rejected = 0, malformed = 0, errors = 0;
  std::uint64_t sampled = 0, mismatched = 0;
  const std::uint64_t offset = o.wrong_reference ? 1 : 0;
  for (const Drive& d : timed)
    for (const Tenant& t : d.tenants) {
      attempted += t.attempted;
      rejected += t.rejected;
      malformed += t.malformed;
      errors += t.errors;
      for (const Sampled& s : t.samples) {
        ++sampled;
        if (!matches_direct(s, offset)) ++mismatched;
      }
    }
  check(r, rejected == 0, std::to_string(rejected) + " typed rejects");
  check(r, errors == 0, std::to_string(errors) + " exceptions");
  check(r, malformed == 0,
        "every response has one entry per requested fleet size");
  check(r, mismatched == 0,
        std::to_string(sampled - mismatched) + " of " +
            std::to_string(sampled) +
            " sampled responses equal a direct sweep field for field");
  r.attempted = attempted;
  r.failed = ledger_ok ? std::min(attempted, rejected + errors + malformed +
                                                 mismatched)
                       : attempted;

  r.record.push_back(
      {"mix", "sweep:what-if:resilience 3:1:1, 3 scenarios, 3 of 6 grid "
              "points, 300 cycles/point; 4 tenants, 2 service workers"});
  r.record.push_back(
      {"cache",
       "capacity " +
           std::to_string(hot ? serve::PointCache::kDefaultCapacity
                              : kColdCacheCapacity) +
           ", resident before the window " +
           std::to_string(cache_before.entries) + "; window hits " +
           std::to_string(cache_after.hits - cache_before.hits) +
           ", misses " +
           std::to_string(cache_after.misses - cache_before.misses) +
           ", evictions " +
           std::to_string(cache_after.evictions - cache_before.evictions)});
  return r;
}

CoreInputs serve_core_inputs(std::uint64_t workload_seed, bool hot) {
  const Mix mix(workload_seed, hot);
  CoreInputs in;
  for (std::uint64_t j = 0; j < 40; ++j) {
    const serve::Request q =
        mix.request(kProbeTenant + static_cast<int>(j % kTenants), j);
    switch (q.kind) {
      case serve::RequestKind::kSweep:
        in.lossy.push_back({q.sweep.params, q.sweep.client_counts,
                            q.sweep.seed, q.sweep.cycles_per_point});
        break;
      case serve::RequestKind::kWhatIf:
        in.lossy.push_back({q.what_if.params, q.what_if.client_counts,
                            q.what_if.seed, q.what_if.cycles_per_point});
        break;
      case serve::RequestKind::kResilience:
        in.resilient.push_back(
            {{q.resilience.params, q.resilience.client_counts,
              q.resilience.seed, q.resilience.cycles_per_point},
             q.resilience.plan});
        break;
    }
  }
  return in;
}

void probe_serve(const Options& o, bool hot, Result& r) {
  const Mix mix(o.seed, hot);
  constexpr std::uint64_t kRequests = 64;
  std::vector<serve::Request> requests;
  for (std::uint64_t j = 0; j < kRequests; ++j)
    requests.push_back(
        mix.request(kProbeTenant + static_cast<int>(j % kTenants), j));
  double sink = 0.0;
  Metric group = probe("serve.scenario_group_ns", "ns", 1e9, kRequests, [&] {
    for (const serve::Request& q : requests)
      sink += static_cast<double>(serve::scenario_group(q).lo & 1U);
  });
  group.basis = "serve::scenario_group on the workload's requests";
  r.metrics.push_back(group);

  // Cached payloads: real points of one scenario.
  const std::uint64_t seed = derive(o.seed, kTagProbe);
  const core::SweepPoint sweep_point =
      core::LargeScaleSimulator(scenario_params(1))
          .sweep({300}, seed, kCyclesPerPoint, 1)
          .front();
  const core::ResiliencePoint resilience_point =
      core::ResilientFleet(scenario_params(1),
                           fault::FaultPlan::random_outages(seed, 20, 0.2, 3))
          .sweep({300}, seed, kCyclesPerPoint, 1)
          .front();
  struct Key {
    serve::PointKey key;
    bool resilience;
  };
  const auto keys_of = [](const std::vector<serve::Request>& qs) {
    std::vector<Key> out;
    for (const serve::Request& q : qs) {
      const core::Hash128 g = serve::scenario_group(q);
      for (int n : q.client_counts())
        out.push_back({{g, n}, q.kind == serve::RequestKind::kResilience});
    }
    return out;
  };
  const auto insert = [&](serve::PointCache& cache, const Key& k) {
    if (k.resilience)
      cache.insert_resilience(k.key, resilience_point);
    else
      cache.insert_sweep(k.key, sweep_point);
  };
  const auto fill_cold = [&](serve::PointCache& cache, const Mix& cold) {
    for (std::uint64_t j = 0; cache.stats().entries < kColdCacheCapacity &&
                              j < 64 * kColdCacheCapacity;
         ++j)
      for (const Key& k : keys_of({cold.request(kPrefillTenant, j)}))
        insert(cache, k);
  };

  // Lookups on the workload's keys with the cache filled as in the run:
  // serve_hot's working set resident (hits), or serve_cold's cache full
  // of other keys (misses).
  serve::PointCache cache(
      16, hot ? serve::PointCache::kDefaultCapacity : kColdCacheCapacity);
  if (hot) {
    for (const Key& k : keys_of(mix.working_set())) insert(cache, k);
  } else {
    fill_cold(cache, mix);
  }
  const std::vector<Key> lookups = keys_of(requests);
  Metric lookup = probe("serve.cache_lookup_ns", "ns", 1e9,
                        static_cast<double>(lookups.size()), [&] {
                          core::SweepPoint sp;
                          core::ResiliencePoint rp;
                          for (const Key& k : lookups)
                            sink += k.resilience
                                        ? cache.lookup_resilience(k.key, &rp)
                                        : cache.lookup_sweep(k.key, &sp);
                        });
  lookup.basis = hot ? "PointCache lookups on the workload's keys, working "
                       "set resident (hits)"
                     : "PointCache lookups on the workload's keys, cache "
                       "full of other keys (misses)";
  r.metrics.push_back(lookup);

  // Inserts into a full cache of serve_cold's capacity. A lap of fresh
  // keys is far larger than the capacity, so every insert evicts.
  const Mix cold(o.seed, false);
  serve::PointCache full(16, kColdCacheCapacity);
  fill_cold(full, cold);
  std::vector<serve::Request> fresh_requests;
  for (std::uint64_t j = 0; j < 4096; ++j)
    fresh_requests.push_back(cold.request(kProbeTenant, j));
  const std::vector<Key> fresh = keys_of(fresh_requests);
  constexpr std::size_t kPerCall = 1024;
  std::size_t at = 0;
  Metric inserts = probe("serve.cache_insert_ns", "ns", 1e9, kPerCall, [&] {
    for (std::size_t k = 0; k < kPerCall; ++k) {
      insert(full, fresh[at]);
      at = (at + 1) % fresh.size();
    }
  });
  inserts.basis =
      "PointCache inserts into a full 1024-entry cache, each evicting a "
      "CLOCK victim";
  r.metrics.push_back(inserts);
  keep(sink);
}

void probe_serve_latency(const Options& o, Result& r) {
  const Mix mix(o.seed, true);
  serve::SimulationService svc(service_config(true));
  prefill(svc, mix);
  drive(svc, mix, o.seed, 1, kProbeTenant, 0.0, kWarmupRequests, nullptr);
  Tracer tracer(kSpanNames, 1);
  drive(svc, mix, o.seed, 1, kProbeTenant + 1, 0.25, 0, &tracer);
  add_span_latency(r, tracer,
                   "one tenant on a prefilled serve_hot service for 0.25 s "
                   "(this workload runs no service)");
}

}  // namespace perfbench
