#include "util/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/catalog.hpp"
#include "util/parallel.hpp"

namespace beesim::util {
namespace {

// Worker identity of the calling thread: its index among the pool's
// workers, or -1 for external (issuer) threads. Set once per worker at
// startup.
thread_local int t_worker_index = -1;

/// Shared control block of one parallel region, heap-allocated so helper
/// tasks still queued after the region completes hold a valid reference:
/// a straggler finds the index cursor exhausted and releases without
/// touching the caller's function, which may already be gone. Freed when
/// the last reference — issuer or queued helper — drops.
struct JobCtl {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::size_t total_chunks = 0;
  /// t_worker_index of the issuing thread (-1 off the pool).
  int issuer = -1;

  /// Next unclaimed index; participants claim [next, next+chunk) ranges.
  std::atomic<std::size_t> next{0};
  /// Chunks fully executed. Reaches total_chunks exactly once.
  std::atomic<std::size_t> chunks_done{0};
  /// Issuer + every pushed helper task.
  std::atomic<std::uint32_t> refs{1};

  std::mutex mutex;
  std::condition_variable cv;
  bool complete = false;  // guarded by mutex

  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_index = 0;
};

void release_job(JobCtl* job) {
  if (job->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete job;
}

/// Claims and executes chunks of `job` until the cursor is exhausted.
/// Runs on the issuer and on every worker that picked up a helper task;
/// whoever finishes the last chunk signals the issuer. Exceptions are
/// captured per index, lowest index kept.
void participate(JobCtl* job) {
  for (;;) {
    const std::size_t begin =
        job->next.fetch_add(job->chunk, std::memory_order_relaxed);
    if (begin >= job->n) break;
    const std::size_t end = std::min(begin + job->chunk, job->n);
    for (std::size_t i = begin; i < end; ++i) {
      try {
        (*job->fn)(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(job->error_mutex);
        if (!job->first_error || i < job->first_error_index) {
          job->first_error = std::current_exception();
          job->first_error_index = i;
        }
      }
    }
    // acq_rel: the final increment synchronizes with every earlier one,
    // so the issuer observing completion observes all body writes.
    if (job->chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job->total_chunks) {
      {
        const std::lock_guard<std::mutex> lock(job->mutex);
        job->complete = true;
      }
      job->cv.notify_all();
    }
  }
}

}  // namespace

struct TaskPool::Impl {
  std::vector<std::thread> threads;

  // Every helper task, whether an external thread or a worker issued its
  // region, waits on this one queue. Workers pop it under the mutex and
  // sleep on `wake` while it stays empty; an issuer pushes its helpers
  // under the mutex and then notifies, so a wake-up cannot fall between a
  // worker's empty check and its wait.
  std::mutex mutex;
  std::condition_variable wake;
  std::deque<JobCtl*> queue;  // guarded by mutex
  bool stop = false;          // guarded by mutex
  // queue.size() as of the last push or pop: idle workers spin on it
  // without taking the mutex.
  std::atomic<std::size_t> queued{0};

  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> parks{0};
  // High-water mark of each lifetime total already published to the obs
  // counters (CAS-forward, so concurrent issuers each publish a disjoint
  // delta exactly once).
  std::atomic<std::uint64_t> published_tasks{0};
  std::atomic<std::uint64_t> published_steals{0};
  std::atomic<std::uint64_t> published_parks{0};

  void worker_main(unsigned self) {
    t_worker_index = static_cast<int>(self);
    // Brief spin on the queue's size before parking: regions issued back
    // to back (the common bench/serving shape) never pay a futex
    // round-trip per dispatch.
    constexpr int kSpinSweeps = 64;
    for (;;) {
      for (int spin = 1; spin < kSpinSweeps &&
                         queued.load(std::memory_order_relaxed) == 0;
           ++spin)
        std::this_thread::yield();
      JobCtl* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (queue.empty()) {
          if (stop) return;
          parks.fetch_add(1, std::memory_order_relaxed);
          wake.wait(lock, [&] { return stop || !queue.empty(); });
          if (queue.empty()) return;
        }
        job = queue.front();
        queue.pop_front();
        queued.store(queue.size(), std::memory_order_relaxed);
      }
      tasks.fetch_add(1, std::memory_order_relaxed);
      // A steal is a nested region's helper run by a sibling of the
      // worker that issued it.
      if (job->issuer >= 0 && job->issuer != static_cast<int>(self))
        steals.fetch_add(1, std::memory_order_relaxed);
      participate(job);
      release_job(job);
    }
  }

  /// Publishes the delta between a lifetime total and its published
  /// high-water mark to an obs counter. CAS-forward: whichever thread
  /// advances the mark owns exactly that delta.
  static void publish(obs::Counter& counter,
                      std::atomic<std::uint64_t>& total,
                      std::atomic<std::uint64_t>& published) {
    const std::uint64_t current = total.load(std::memory_order_relaxed);
    std::uint64_t mark = published.load(std::memory_order_relaxed);
    while (mark < current) {
      if (published.compare_exchange_weak(mark, current,
                                          std::memory_order_relaxed)) {
        counter.inc(current - mark);
        return;
      }
    }
  }

  void publish_metrics() {
    namespace m = obs::metric;
    static auto& tasks_counter = obs::registry().counter(m::kPoolTasks);
    static auto& steals_counter = obs::registry().counter(m::kPoolSteals);
    static auto& parks_counter = obs::registry().counter(m::kPoolParks);
    publish(tasks_counter, tasks, published_tasks);
    publish(steals_counter, steals, published_steals);
    publish(parks_counter, parks, published_parks);
  }
};

TaskPool& TaskPool::instance() {
  static TaskPool pool;
  return pool;
}

TaskPool::TaskPool() : impl_(new Impl) {
  // The issuing thread is always a region's first participant, so
  // hardware_concurrency - 1 workers saturate the machine without
  // oversubscribing it.
  const unsigned hw = default_thread_count();
  worker_count_ = hw > 1 ? hw - 1 : 0;
  impl_->threads.reserve(worker_count_);
  for (unsigned i = 0; i < worker_count_; ++i)
    impl_->threads.emplace_back([this, i] { impl_->worker_main(i); });
}

TaskPool::~TaskPool() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->wake.notify_all();
  for (auto& thread : impl_->threads)
    if (thread.joinable()) thread.join();
  delete impl_;
}

TaskPool::Stats TaskPool::stats() const noexcept {
  Stats s;
  s.tasks = impl_->tasks.load(std::memory_order_relaxed);
  s.steals = impl_->steals.load(std::memory_order_relaxed);
  s.parks = impl_->parks.load(std::memory_order_relaxed);
  return s;
}

void TaskPool::run(std::size_t n,
                   const std::function<void(std::size_t)>& fn,
                   unsigned max_participants) {
  Impl& impl = *impl_;
  const std::size_t participants =
      std::min<std::size_t>(std::max(1u, max_participants), n);
  // Chunked index claiming: a handful of chunks per participant keeps
  // the shared-cursor traffic negligible while still load-balancing
  // uneven bodies. chunk = 1 whenever indices are scarce.
  const std::size_t chunk = std::max<std::size_t>(1, n / (participants * 4));
  const std::size_t total_chunks = (n + chunk - 1) / chunk;
  // Helpers beyond the worker count would only queue stale tasks; the
  // issuer is the remaining participant.
  const std::size_t helpers = std::min<std::size_t>(
      {participants - 1, total_chunks - 1, impl.threads.size()});

  auto* job = new JobCtl;
  job->fn = &fn;
  job->n = n;
  job->chunk = chunk;
  job->total_chunks = total_chunks;
  job->issuer = t_worker_index;
  job->refs.store(1 + static_cast<std::uint32_t>(helpers),
                  std::memory_order_relaxed);

  if (helpers > 0) {
    // A region issued from inside a worker queues its helpers like any
    // other, so sibling workers pick them up: task-tree composition with
    // the pool's worker count as the global parallelism bound.
    {
      const std::lock_guard<std::mutex> lock(impl.mutex);
      impl.queue.insert(impl.queue.end(), helpers, job);
      impl.queued.store(impl.queue.size(), std::memory_order_relaxed);
    }
    impl.wake.notify_all();
  }

  // The issuer claims chunks like any worker, which guarantees every
  // index runs even if no helper is ever picked up.
  participate(job);

  if (job->chunks_done.load(std::memory_order_acquire) !=
      job->total_chunks) {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->cv.wait(lock, [&] { return job->complete; });
  }

  std::exception_ptr error;
  {
    const std::lock_guard<std::mutex> lock(job->error_mutex);
    error = job->first_error;
  }
  release_job(job);

  if (obs::enabled()) impl.publish_metrics();
  if (error) std::rethrow_exception(error);
}

}  // namespace beesim::util
