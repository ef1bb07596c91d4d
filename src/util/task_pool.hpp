#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace beesim::util {

/// The process-wide persistent executor behind util::parallel_for.
///
/// The old parallel_for spawned a fresh std::vector<std::thread> on
/// every call — a full fork/join per parallel region, paid again by
/// every STFT, every sweep, every columnar advance, and forcing nested
/// regions to run serially (spawning inside a worker would multiply the
/// thread count). TaskPool replaces that with one lazily-started,
/// process-wide set of workers:
///
///  - each worker owns a Chase–Lev work-stealing deque (lock-free
///    owner push/pop at the bottom, lock-free thief steal at the top);
///  - non-worker threads submit through a small mutex-guarded injection
///    queue that idle workers drain alongside stealing;
///  - idle workers park on an eventcount (epoch-checked sleep, so a
///    submit racing a park can never lose its wakeup) and are unparked
///    only when work arrives;
///  - the pool starts on first use and shuts down cleanly from the
///    static destructor: workers are joined only when no region is in
///    flight (parallel regions are fully synchronous, so none can be).
///
/// Nesting composes instead of serializing: a parallel_for issued from
/// inside a worker pushes its helper tasks onto that worker's own deque,
/// where sibling workers steal them — the clip-parallel dataset
/// featurizer's inner frame-parallel STFT runs wide without ever
/// exceeding the pool's worker count (docs/ARCHITECTURE.md "Threading
/// model").
///
/// Determinism contract (inherited by parallel_for): each index owns its
/// data and RNG stream, so however chunks land on workers the results
/// are bitwise identical to the serial loop; exceptions are captured
/// per-index and the lowest-index one is rethrown on the issuing thread
/// after the whole region has finished.
class TaskPool {
 public:
  /// The lazily-constructed process-wide pool. First call starts
  /// default_thread_count() - 1 workers (the issuing thread is always
  /// the region's first participant, so worker_count() + 1 threads can
  /// run one region at hardware concurrency).
  static TaskPool& instance();

  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Runs fn(0) ... fn(n-1) with at most `max_participants` threads
  /// working on the region at once (the calling thread plus up to
  /// max_participants - 1 pool workers). Blocks until every index has
  /// run; rethrows the lowest-index captured exception, if any. The
  /// index range is claimed in contiguous chunks off a shared cursor,
  /// so small-grain regions pay one atomic per chunk, not per index.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn,
           unsigned max_participants);

  /// Pool workers (excludes issuing threads). 0 on single-core hosts —
  /// every region then runs inline on its issuer.
  unsigned worker_count() const noexcept { return worker_count_; }

  /// Lifetime totals of the scheduler's own events, kept as plain
  /// relaxed atomics so the hot path never touches the obs registry;
  /// parallel_for publishes deltas to the util.pool.* obs counters from
  /// the issuing thread (docs/OBSERVABILITY.md).
  struct Stats {
    std::uint64_t tasks = 0;   ///< helper tasks executed by workers
    std::uint64_t steals = 0;  ///< successful steals from sibling deques
    std::uint64_t parks = 0;   ///< times an idle worker went to sleep
  };
  Stats stats() const noexcept;

 private:
  TaskPool();

  struct Impl;
  Impl* impl_;
  unsigned worker_count_ = 0;
};

}  // namespace beesim::util
