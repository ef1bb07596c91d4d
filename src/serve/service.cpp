#include "serve/service.hpp"

#include <algorithm>
#include <map>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "obs/catalog.hpp"

namespace beesim::serve {
namespace {

struct ServeMetrics {
  obs::Counter& submitted;
  obs::Counter& admitted;
  obs::Counter& rejected;
  obs::Counter& completed;
  obs::Counter& answered_at_submit;
  obs::Counter& points_requested;
  obs::Counter& points_computed;
  obs::Counter& points_coalesced;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Histogram& batch_width;
  obs::Gauge& queue_peak_depth;
};

ServeMetrics& metrics() {
  namespace m = obs::metric;
  auto& reg = obs::registry();
  static ServeMetrics instance{
      reg.counter(m::kServeRequestsSubmitted),
      reg.counter(m::kServeRequestsAdmitted),
      reg.counter(m::kServeRequestsRejected),
      reg.counter(m::kServeRequestsCompleted),
      reg.counter(m::kServeRequestsAnsweredAtSubmit),
      reg.counter(m::kServePointsRequested),
      reg.counter(m::kServePointsComputed),
      reg.counter(m::kServePointsCoalesced),
      reg.counter(m::kServeCacheHits),
      reg.counter(m::kServeCacheMisses),
      reg.histogram(m::kServeBatchWidth, obs::serve_batch_bounds()),
      reg.gauge(m::kServeQueuePeakDepth)};
  return instance;
}

/// Where one point of a response came from; kMissing abandons it.
enum class Source { kMissing, kComputed, kCached };

/// Builds `request`'s response in its fleet-size order. Both routes call
/// it: submit() fetching from the cache, where the first miss abandons
/// the response, and process_batch's fan-out fetching the batch's
/// resolved points. `fetch(count, &point)` writes the point of one fleet
/// size — a core::SweepPoint, or a core::ResiliencePoint for kResilience —
/// and returns its source. What-if verdicts compare against the analytic
/// edge-only constant, computed once per request.
template <typename Fetch>
bool assemble(const Request& request, Fetch&& fetch, Response& response) {
  const std::vector<int>& counts = request.client_counts();
  response.kind = request.kind;
  response.points_total = static_cast<int>(counts.size());
  // Fetches point `i` into `point` and marks its result slot. The results
  // are sized only once a point has resolved, so a request whose first
  // point misses allocates nothing.
  const auto take = [&](auto& results, std::size_t i, auto* point) {
    const Source source = fetch(counts[i], point);
    if (source == Source::kMissing) return false;
    if (results.empty()) results.resize(counts.size());
    results[i].from_cache = source == Source::kCached;
    if (results[i].from_cache) ++response.points_from_cache;
    return true;
  };
  switch (request.kind) {
    case RequestKind::kSweep: {
      core::SweepPoint point;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (!take(response.sweep_points, i, &point)) return false;
        response.sweep_points[i].point = point;
      }
      return true;
    }
    case RequestKind::kWhatIf: {
      core::SweepPoint point;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (!take(response.what_if, i, &point)) return false;
        response.what_if[i].comparison.clients = counts[i];
        response.what_if[i].comparison.edge_cloud_per_client =
            point.total_per_client();
      }
      // Priced once per request, and only after every point resolved:
      // at about 0.8 µs it would otherwise dominate a missing submit().
      const WhatIfRequest& r = request.what_if;
      const double edge_only =
          core::ClientSpec::smart_beehive(core::Placement::kEdgeOnly,
                                          r.service, r.params.client.period)
              .cycle_energy();
      for (WhatIfResult& out : response.what_if) {
        out.comparison.edge_only_per_client = edge_only;
        out.comparison.edge_cloud_wins =
            out.comparison.edge_cloud_per_client < edge_only;
      }
      return true;
    }
    case RequestKind::kResilience: {
      core::ResiliencePoint point;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (!take(response.resilience_points, i, &point)) return false;
        response.resilience_points[i].point = point;
      }
      return true;
    }
  }
  return false;
}

}  // namespace

SimulationService::SimulationService() : SimulationService(Config()) {}

SimulationService::SimulationService(Config config)
    : config_(config), cache_(16, config.cache_capacity) {
  if (config_.max_batch < 1) config_.max_batch = 1;
  if (config_.max_in_flight < 1) config_.max_in_flight = 1;
  // With workers = 0 (manual mode) one queue still exists so submit/drain
  // have somewhere to meet.
  const unsigned queues = std::max(1u, config_.workers);
  workers_.reserve(queues);
  for (unsigned i = 0; i < queues; ++i)
    workers_.push_back(std::make_unique<Worker>(config_.queue_capacity));
  for (unsigned i = 0; i < config_.workers; ++i) {
    Worker& w = *workers_[i];
    w.thread = std::thread([this, &w] { worker_loop(w); });
  }
}

SimulationService::~SimulationService() { shutdown(); }

SimulationService::Ticket SimulationService::submit(Request request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  metrics().submitted.inc();

  auto reject = [this](Admission admission) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    metrics().rejected.inc();
    Ticket ticket;
    ticket.admission = admission;
    return ticket;
  };

  if (stopping_.load(std::memory_order_acquire))
    return reject(Admission::kRejectedShutdown);
  if (!valid(request)) return reject(Admission::kRejectedInvalid);

  // Reserve an in-flight slot before resolving or queueing: the
  // reservation is released once submit() has answered the request, on
  // push failure, or on completion, so max_in_flight is a hard bound even
  // with many producers racing.
  if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
      config_.max_in_flight) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return reject(Admission::kRejectedOverloaded);
  }

  const core::Hash128 group = scenario_group(request);

  // Resolve against the cache on the caller's thread: a request whose
  // every point is cached is answered here, without a ring slot, a worker
  // or a wake-up. The peeks are uncounted, so a request that falls
  // through is counted once, by the worker's lookups.
  if (config_.cache_enabled) {
    Response response;
    const auto cached = [&](int count, auto* point) {
      return cache_.peek(PointKey{group, count}, point) ? Source::kCached
                                                        : Source::kMissing;
    };
    if (assemble(request, cached, response)) {
      const auto points = static_cast<std::uint64_t>(response.points_total);
      cache_.count_hits(points);
      admitted_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      ServeMetrics& m = metrics();
      m.admitted.inc();
      m.completed.inc();
      m.answered_at_submit.inc();
      m.points_requested.inc(points);
      m.cache_hits.inc(points);
      std::promise<Response> promise;
      promise.set_value(std::move(response));
      Ticket ticket;
      ticket.admission = Admission::kAdmitted;
      ticket.response = promise.get_future();
      return ticket;
    }
  }

  Worker& w = *workers_[group.lo % workers_.size()];

  auto pending = std::make_unique<Pending>();
  pending->request = std::move(request);
  pending->group = group;
  std::future<Response> future = pending->promise.get_future();

  if (!w.queue.try_push(pending.get())) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    return reject(Admission::kRejectedQueueFull);
  }
  pending.release();  // owned by the queue (freed after fan-out)
  admitted_.fetch_add(1, std::memory_order_relaxed);
  metrics().admitted.inc();
  metrics().queue_peak_depth.update_max(
      static_cast<double>(w.queue.size_approx()));
  w.wake.notify_all();

  Ticket ticket;
  ticket.admission = Admission::kAdmitted;
  ticket.response = std::move(future);
  return ticket;
}

void SimulationService::worker_loop(Worker& worker) {
  std::vector<Pending*> batch;
  batch.reserve(config_.max_batch);
  for (;;) {
    // The epoch is read before the ring is popped: a push that lands
    // after an empty pop has bumped it, so the wait returns at once.
    const std::uint64_t epoch = worker.wake.prepare();
    if (run_batch(worker, batch)) continue;
    if (stopping_.load(std::memory_order_acquire)) break;
    worker.wake.wait(epoch);
  }
}

void SimulationService::drain_queue(Worker& worker) {
  std::vector<Pending*> batch;
  batch.reserve(config_.max_batch);
  while (run_batch(worker, batch)) {
  }
}

bool SimulationService::run_batch(Worker& worker,
                                  std::vector<Pending*>& batch) {
  batch.clear();
  Pending* pending = nullptr;
  while (batch.size() < config_.max_batch && worker.queue.try_pop(pending))
    batch.push_back(pending);
  if (batch.empty()) return false;
  process_batch(batch);
  return true;
}

void SimulationService::drain() {
  for (auto& worker : workers_) drain_queue(*worker);
}

void SimulationService::shutdown() {
  stopping_.store(true, std::memory_order_release);
  for (auto& worker : workers_) worker->wake.notify_all();
  for (auto& worker : workers_)
    if (worker->thread.joinable()) worker->thread.join();
  // Final inline sweep: covers manual mode (workers = 0) and the race
  // where a submit won its push just as a worker observed stopping_ and
  // exited. After this, every admitted request has completed.
  drain();
}

SimulationService::Ledger SimulationService::ledger() const noexcept {
  Ledger ledger;
  ledger.submitted = submitted_.load(std::memory_order_relaxed);
  ledger.admitted = admitted_.load(std::memory_order_relaxed);
  ledger.rejected = rejected_.load(std::memory_order_relaxed);
  ledger.completed = completed_.load(std::memory_order_relaxed);
  return ledger;
}

void SimulationService::process_batch(std::vector<Pending*>& batch) {
  metrics().batch_width.observe(static_cast<double>(batch.size()));

  // Per-group compute plan: the exemplar request defines the scenario,
  // `missing` collects the fleet sizes nobody (cache or this batch) has.
  struct GroupWork {
    const Request* exemplar = nullptr;
    std::vector<int> missing;
  };
  std::map<core::Hash128, GroupWork> groups;

  // Points resolved for this batch, by key; `from_cache` marks provenance.
  std::unordered_map<PointKey, core::SweepPoint, PointKeyHash> sweep_local;
  std::unordered_map<PointKey, core::ResiliencePoint, PointKeyHash>
      resilience_local;
  std::unordered_set<PointKey, PointKeyHash> from_cache;
  std::unordered_set<PointKey, PointKeyHash> scheduled;

  std::uint64_t requested = 0, coalesced = 0, hits = 0, misses = 0;

  // Pass 1 — resolve every key against the batch (coalescing) and the
  // cache; whatever is left becomes per-group compute work.
  for (const Pending* pending : batch) {
    const bool is_resilience =
        pending->request.kind == RequestKind::kResilience;
    for (int count : pending->request.client_counts()) {
      ++requested;
      const PointKey key{pending->group, count};
      const bool seen = is_resilience
                            ? resilience_local.count(key) > 0
                            : sweep_local.count(key) > 0;
      if (seen || scheduled.count(key) > 0) {
        ++coalesced;
        continue;
      }
      if (config_.cache_enabled) {
        if (is_resilience) {
          core::ResiliencePoint point;
          if (cache_.lookup_resilience(key, &point)) {
            resilience_local.emplace(key, point);
            from_cache.insert(key);
            ++hits;
            continue;
          }
        } else {
          core::SweepPoint point;
          if (cache_.lookup_sweep(key, &point)) {
            sweep_local.emplace(key, point);
            from_cache.insert(key);
            ++hits;
            continue;
          }
        }
        ++misses;
      }
      scheduled.insert(key);
      GroupWork& work = groups[pending->group];
      if (work.exemplar == nullptr) work.exemplar = &pending->request;
      work.missing.push_back(count);
    }
  }

  // Pass 2 — one compute dispatch per scenario group over its missing
  // fleet sizes: a pool-parallel sweep (threads = 0 → the task pool's
  // worker set), which is one columnar campaign (start → advance →
  // points). Every point draws from its own (seed, size) RNG stream, so
  // cache entries and responses are bit-identical to a direct sweep of
  // any subset — the grouping only moves wall-clock time.
  std::uint64_t computed = 0;
  for (auto& [group_hash, work] : groups) {
    std::sort(work.missing.begin(), work.missing.end());
    const Request& exemplar = *work.exemplar;
    if (exemplar.kind == RequestKind::kResilience) {
      const ResilienceRequest& r = exemplar.resilience;
      const core::ResilientFleet fleet(r.params, r.plan, r.policy, r.service);
      const std::vector<core::ResiliencePoint> points =
          fleet.sweep(work.missing, r.seed, r.cycles_per_point, 0);
      for (std::size_t i = 0; i < points.size(); ++i) {
        const PointKey key{group_hash, work.missing[i]};
        resilience_local.emplace(key, points[i]);
        if (config_.cache_enabled) cache_.insert_resilience(key, points[i]);
      }
    } else {
      const bool is_sweep = exemplar.kind == RequestKind::kSweep;
      const core::FleetParams& params =
          is_sweep ? exemplar.sweep.params : exemplar.what_if.params;
      const int cycles = is_sweep ? exemplar.sweep.cycles_per_point
                                  : exemplar.what_if.cycles_per_point;
      const std::uint64_t seed =
          is_sweep ? exemplar.sweep.seed : exemplar.what_if.seed;
      const std::vector<core::SweepPoint> points =
          core::LargeScaleSimulator(params).sweep(work.missing, seed, cycles,
                                                  0);
      for (std::size_t i = 0; i < points.size(); ++i) {
        const PointKey key{group_hash, work.missing[i]};
        sweep_local.emplace(key, points[i]);
        if (config_.cache_enabled) cache_.insert_sweep(key, points[i]);
      }
    }
    computed += work.missing.size();
  }

  // Pass 3 — fan out: assemble each response in its request's order and
  // fulfill the promise.
  for (Pending* pending : batch) {
    const auto resolved = [&](int count, auto* point) {
      const PointKey key{pending->group, count};
      if constexpr (std::is_same_v<decltype(point), core::SweepPoint*>)
        *point = sweep_local.at(key);
      else
        *point = resilience_local.at(key);
      return from_cache.count(key) != 0 ? Source::kCached
                                        : Source::kComputed;
    };
    Response response;
    assemble(pending->request, resolved, response);
    pending->promise.set_value(std::move(response));
    completed_.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    metrics().completed.inc();
    delete pending;
  }

  metrics().points_requested.inc(requested);
  metrics().points_computed.inc(computed);
  metrics().points_coalesced.inc(coalesced);
  metrics().cache_hits.inc(hits);
  metrics().cache_misses.inc(misses);
}

}  // namespace beesim::serve
