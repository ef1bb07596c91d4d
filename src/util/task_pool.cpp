#include "util/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/catalog.hpp"
#include "util/event_count.hpp"
#include "util/parallel.hpp"

namespace beesim::util {
namespace {

// Worker identity of the calling thread: index into the pool's deque
// array, or -1 for external (issuer) threads. Set once per worker at
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
  /// Chase–Lev work-stealing deque of JobCtl pointers (Le et al.,
  /// "Correct and Efficient Work-Stealing for Weak Memory Models", in its
  /// fence-free form: seq_cst operations on top_/bottom_). The
  /// owning worker pushes and pops at the bottom (LIFO, lock-free);
  /// thieves steal at the top (FIFO) racing through one CAS. Cells are
  /// atomics, so the owner/thief race on a cell is defined behavior and
  /// ThreadSanitizer-clean. The buffer grows by retiring the old array
  /// (a thief may still be reading it) rather than freeing it.
  class Deque {
   public:
    explicit Deque(std::size_t capacity = 256) {
      buffer_.store(make_buffer(capacity), std::memory_order_relaxed);
    }

    void push(JobCtl* job) {  // owner only
      const std::int64_t b = bottom_.load(std::memory_order_relaxed);
      const std::int64_t t = top_.load(std::memory_order_acquire);
      Buffer* buf = buffer_.load(std::memory_order_relaxed);
      if (b - t > buf->capacity - 1) {
        grow(b, t);
        buf = buffer_.load(std::memory_order_relaxed);
      }
      buf->cells[static_cast<std::size_t>(b & buf->mask)].store(
          job, std::memory_order_relaxed);
      // Publishes the cell (and the job it points to) to any thief that
      // reads the new bottom.
      bottom_.store(b + 1, std::memory_order_release);
    }

    bool pop(JobCtl*& out) {  // owner only
      const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
      Buffer* buf = buffer_.load(std::memory_order_relaxed);
      // The owner's bottom store and a thief's top load (and vice versa in
      // steal) are seq_cst operations rather than relaxed ones behind
      // standalone fences: the same total order, in a form
      // ThreadSanitizer models (it does not model atomic_thread_fence).
      bottom_.store(b, std::memory_order_seq_cst);
      std::int64_t t = top_.load(std::memory_order_seq_cst);
      if (t > b) {  // empty: restore
        bottom_.store(b + 1, std::memory_order_relaxed);
        return false;
      }
      out = buf->cells[static_cast<std::size_t>(b & buf->mask)].load(
          std::memory_order_relaxed);
      if (t == b) {  // last element: race the thieves for it
        const bool won = top_.compare_exchange_strong(
            t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
        bottom_.store(b + 1, std::memory_order_relaxed);
        return won;
      }
      return true;
    }

    bool steal(JobCtl*& out) {  // any thread
      std::int64_t t = top_.load(std::memory_order_seq_cst);
      const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
      if (t >= b) return false;
      Buffer* buf = buffer_.load(std::memory_order_acquire);
      out = buf->cells[static_cast<std::size_t>(t & buf->mask)].load(
          std::memory_order_relaxed);
      return top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
    }

    bool maybe_nonempty() const noexcept {
      return bottom_.load(std::memory_order_relaxed) >
             top_.load(std::memory_order_relaxed);
    }

   private:
    struct Buffer {
      std::int64_t capacity = 0;
      std::int64_t mask = 0;
      std::unique_ptr<std::atomic<JobCtl*>[]> cells;
    };

    Buffer* make_buffer(std::size_t capacity) {
      auto buf = std::make_unique<Buffer>();
      buf->capacity = static_cast<std::int64_t>(capacity);
      buf->mask = buf->capacity - 1;
      buf->cells = std::make_unique<std::atomic<JobCtl*>[]>(capacity);
      Buffer* raw = buf.get();
      retired_.push_back(std::move(buf));
      return raw;
    }

    void grow(std::int64_t b, std::int64_t t) {  // owner only
      Buffer* old = buffer_.load(std::memory_order_relaxed);
      Buffer* bigger =
          make_buffer(static_cast<std::size_t>(old->capacity) * 2);
      for (std::int64_t i = t; i < b; ++i)
        bigger->cells[static_cast<std::size_t>(i & bigger->mask)].store(
            old->cells[static_cast<std::size_t>(i & old->mask)].load(
                std::memory_order_relaxed),
            std::memory_order_relaxed);
      buffer_.store(bigger, std::memory_order_release);
    }

    std::atomic<std::int64_t> top_{0};
    std::atomic<std::int64_t> bottom_{0};
    std::atomic<Buffer*> buffer_{nullptr};
    // Old buffers stay alive until the deque dies: a thief may hold a
    // pointer read before a grow. Mutated by the owner only.
    std::vector<std::unique_ptr<Buffer>> retired_;
  };

  std::vector<std::unique_ptr<Deque>> deques;
  std::vector<std::thread> threads;

  // External (non-worker) submissions land here; workers drain it
  // alongside stealing. Low traffic — one batch of pushes per region
  // issued off-pool — so a mutex is fine.
  std::mutex inject_mutex;
  std::deque<JobCtl*> inject;
  std::atomic<std::size_t> inject_size{0};

  EventCount ec;
  std::atomic<bool> stop{false};

  std::atomic<std::uint64_t> tasks{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> parks{0};
  // High-water mark of each lifetime total already published to the obs
  // counters (CAS-forward, so concurrent issuers each publish a disjoint
  // delta exactly once).
  std::atomic<std::uint64_t> published_tasks{0};
  std::atomic<std::uint64_t> published_steals{0};
  std::atomic<std::uint64_t> published_parks{0};

  bool pop_inject(JobCtl*& out) {
    if (inject_size.load(std::memory_order_acquire) == 0) return false;
    const std::lock_guard<std::mutex> lock(inject_mutex);
    if (inject.empty()) return false;
    out = inject.front();
    inject.pop_front();
    inject_size.store(inject.size(), std::memory_order_release);
    return true;
  }

  /// One task off the pool, preferring the caller's own deque, then the
  /// injection queue, then steals from siblings.
  bool find_task(unsigned self, JobCtl*& out) {
    if (deques[self]->pop(out)) return true;
    if (pop_inject(out)) return true;
    const unsigned count = static_cast<unsigned>(deques.size());
    for (unsigned k = 1; k < count; ++k) {
      const unsigned victim = (self + k) % count;
      if (deques[victim]->steal(out)) {
        steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  bool maybe_work() const noexcept {
    if (inject_size.load(std::memory_order_relaxed) > 0) return true;
    for (const auto& d : deques)
      if (d->maybe_nonempty()) return true;
    return false;
  }

  void worker_main(unsigned self) {
    t_worker_index = static_cast<int>(self);
    // Brief spin between queue sweeps before parking: regions issued
    // back to back (the common bench/serving shape) never pay a futex
    // round-trip per dispatch.
    constexpr int kSpinSweeps = 64;
    int idle_sweeps = 0;
    for (;;) {
      JobCtl* job = nullptr;
      if (find_task(self, job)) {
        idle_sweeps = 0;
        tasks.fetch_add(1, std::memory_order_relaxed);
        participate(job);
        release_job(job);
        continue;
      }
      if (stop.load(std::memory_order_acquire)) return;
      if (++idle_sweeps < kSpinSweeps) {
        std::this_thread::yield();
        continue;
      }
      idle_sweeps = 0;
      const std::uint64_t key = ec.prepare();
      if (stop.load(std::memory_order_acquire) || maybe_work()) continue;
      parks.fetch_add(1, std::memory_order_relaxed);
      ec.wait(key);
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
  impl_->deques.reserve(worker_count_);
  for (unsigned i = 0; i < worker_count_; ++i)
    impl_->deques.push_back(std::make_unique<Impl::Deque>());
  impl_->threads.reserve(worker_count_);
  for (unsigned i = 0; i < worker_count_; ++i)
    impl_->threads.emplace_back([this, i] { impl_->worker_main(i); });
}

TaskPool::~TaskPool() {
  impl_->stop.store(true, std::memory_order_release);
  impl_->ec.notify_all();
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
      {participants - 1, total_chunks - 1, impl.deques.size()});

  auto* job = new JobCtl;
  job->fn = &fn;
  job->n = n;
  job->chunk = chunk;
  job->total_chunks = total_chunks;
  job->refs.store(1 + static_cast<std::uint32_t>(helpers),
                  std::memory_order_relaxed);

  if (helpers > 0) {
    if (t_worker_index >= 0) {
      // Nested region: park the helper tasks on this worker's own deque
      // where siblings steal them — task-tree composition instead of the
      // old serial fallback, with the pool's worker count as the global
      // parallelism bound.
      auto& own = *impl.deques[static_cast<std::size_t>(t_worker_index)];
      for (std::size_t h = 0; h < helpers; ++h) own.push(job);
    } else {
      const std::lock_guard<std::mutex> lock(impl.inject_mutex);
      for (std::size_t h = 0; h < helpers; ++h) impl.inject.push_back(job);
      impl.inject_size.store(impl.inject.size(), std::memory_order_release);
    }
    impl.ec.notify_all();
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
