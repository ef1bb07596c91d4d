#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/request.hpp"

namespace beesim::serve {

/// The multi-tenant simulation-as-a-service front end (docs/SERVING.md):
/// an in-process request server over the Section VI fleet models. Tenants
/// submit scenario-evaluation requests concurrently; each request passes
/// admission control (bounded queues + a service-wide in-flight bound,
/// with typed rejects) and is resolved against the content-addressed
/// PointCache right there: a request whose every point is cached is
/// answered on the caller's thread. Any other request lands on a worker
/// event loop via its mutex-guarded submission lane, is coalesced with
/// overlapping requests from other tenants, checked against the cache
/// again, and only the genuinely new points reach
/// LargeScaleSimulator::sweep / ResilientFleet::sweep. Responses are
/// bit-identical whether a point was computed cold, coalesced into
/// another tenant's batch, or served from the cache on either route
/// (tested in tests/test_serve.cpp).
///
/// Requests that need compute are routed to workers by scenario-group
/// hash ("scenario affinity"), so all requests over the same
/// configuration serialize on one worker — overlap becomes batching
/// instead of duplicate concurrent compute. Distinct scenarios spread
/// across workers.
class SimulationService {
 public:
  /// Serving-policy knobs. Defaults suit a bench-scale deployment; the
  /// admission bounds are deliberately explicit so every capacity limit
  /// surfaces as a typed reject rather than latency collapse.
  struct Config {
    /// Worker event-loop threads. 0 = manual mode: no threads are
    /// spawned and requests that need compute sit queued until `drain()`
    /// runs them on the calling thread — the deterministic mode the unit
    /// tests use. Fully cached requests are answered by submit() in
    /// either mode.
    unsigned workers = 2;
    /// Requests each worker's submission lane holds at most. A full
    /// lane rejects with kRejectedQueueFull; a request answered by
    /// submit() never takes a slot.
    std::size_t queue_capacity = 1024;
    /// Service-wide bound on admitted-but-not-completed requests.
    /// Exceeding it rejects with kRejectedOverloaded. Every request,
    /// fully cached or not, reserves a slot while submit() runs.
    std::int64_t max_in_flight = 4096;
    /// Total PointCache entry bound (0 = unbounded). At the bound the
    /// cache evicts CLOCK victims instead of growing — the fix for the
    /// long-lived-service leak where every distinct scenario stayed
    /// resident forever. Evictions never change results: a re-computed
    /// point is bit-identical to the evicted one.
    std::size_t cache_capacity = PointCache::kDefaultCapacity;
  };

  /// The outcome of one submit: a typed admission decision, plus (only
  /// when admitted) the future carrying the response.
  struct Ticket {
    Admission admission = Admission::kRejectedInvalid;
    std::future<Response> response;

    bool admitted() const noexcept {
      return admission == Admission::kAdmitted;
    }
  };

  /// The admission ledger: every submitted request is exactly one of
  /// admitted or rejected, and every admitted request is eventually
  /// completed. `balanced()` is the no-leak invariant checked by the
  /// tests and by the repo benchmark's serve workloads.
  struct Ledger {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;

    std::int64_t in_flight() const noexcept {
      return static_cast<std::int64_t>(admitted) -
             static_cast<std::int64_t>(completed);
    }
    /// submitted = admitted + rejected and completed <= admitted. Exact
    /// at quiescence (no submit racing the read); after shutdown()
    /// in_flight() must be 0.
    bool balanced() const noexcept {
      return submitted == admitted + rejected && completed <= admitted;
    }
  };

  SimulationService();  // default Config
  explicit SimulationService(Config config);
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  /// Thread-safe request submission (any number of tenant threads). An
  /// admitted request whose every point is in the cache comes back with
  /// its future already ready; any other goes to a worker.
  Ticket submit(Request request);

  /// Stops accepting new work, drains every queued request (all admitted
  /// futures are fulfilled) and joins the workers. A submit() racing it
  /// is either admitted and fulfilled before it returns or rejected with
  /// kRejectedShutdown. Idempotent; the destructor calls it.
  void shutdown();

  /// Processes every queued request on the calling thread. The manual
  /// processing mode for `workers = 0` configurations; safe (but
  /// normally pointless) alongside running workers, since every lane
  /// is popped under its mutex.
  void drain();

  Ledger ledger() const noexcept;
  PointCache::Stats cache_stats() const { return cache_.stats(); }
  const Config& config() const noexcept { return config_; }

 private:
  struct Pending {
    Request request;
    std::promise<Response> promise;
    core::Hash128 group;
  };
  /// Most requests one worker coalesces into a single dispatch.
  static constexpr std::size_t kMaxBatch = 32;
  /// One worker's submission lane: tenants push under the mutex, the
  /// worker's event loop (or drain()) pops under it and sleeps on `wake`
  /// while the queue is empty.
  struct Lane {
    std::mutex mutex;
    std::condition_variable wake;
    std::deque<Pending*> queue;  // guarded by mutex
    std::thread thread;  // not started in manual mode

    /// Moves up to kMaxBatch requests off the front of the queue into
    /// `batch`; the caller holds `mutex`.
    void take(std::vector<Pending*>& batch);
  };

  void worker_loop(Lane& lane);
  void process_batch(std::vector<Pending*>& batch);

  Config config_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  PointCache cache_;
  /// Set once by shutdown(); submit() re-reads it under the lane mutex
  /// before pushing.
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  // Hard admission reservation counter (reserve before push, release on
  // push failure or completion) — keeps max_in_flight a real bound even
  // under racing producers.
  std::atomic<std::int64_t> in_flight_{0};
};

}  // namespace beesim::serve
