// Task-pool microbench: dispatch overhead of the persistent
// executor (util::TaskPool) versus the spawn-per-call
// strategy parallel_for used before the pool existed. Three probes:
//
//   dispatch  — small-grain fork/join regions (`tasks` indices, near-empty
//               bodies) timed per region, pool vs a faithful local replica
//               of the old spawn-per-call implementation.
//   grain     — the same comparison with a body that does real arithmetic,
//               showing where spawn cost stops dominating.
//   steal     — sustained throughput of tiny tasks through the pool, with
//               the scheduler counters (tasks/steals/parks) read from
//               TaskPool::stats() before and after.
//
// Parseable output, one key=value per figure:
//   pool_dispatch_us=  spawn_dispatch_us=  dispatch_speedup=
//   steal_tasks_per_sec=  pool_steals=  pool_parks=
//
// With require=1 the bench exits non-zero unless the pool dispatches the
// small-grain region at least `min_speedup=` (default 5) times faster
// than spawn-per-call — the acceptance bound the executor must clear.
//
// Usage: pool_microbench [tasks=64] [reps=400] [threads=0] [require=0]
//                        [min_speedup=5] [--metrics-out path]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "util/parallel.hpp"
#include "util/task_pool.hpp"

namespace {

namespace u = beesim::util;
using Clock = std::chrono::steady_clock;

/// The pre-pool parallel_for, reproduced verbatim in miniature: burn one
/// thread per extra participant on every call, join them, rethrow. This
/// is the baseline the persistent executor replaces — per-call thread
/// creation is the overhead being measured, so the replica must pay it.
void spawn_per_call_for(std::size_t n,
                        const std::function<void(std::size_t)>& fn,
                        unsigned threads) {
  threads = static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(n, 1)));
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> extra;
  extra.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) extra.emplace_back(worker);
  worker();
  for (auto& thread : extra) thread.join();
}

double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Median-of-reps wall time of one fork/join region (microseconds).
template <typename Region>
double time_region_us(int reps, Region&& region) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    region();
    samples.push_back(to_us(Clock::now() - start));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  beesim::bench::Args args(argc, argv);
  const auto tasks =
      static_cast<std::size_t>(args.config().get_int("tasks", 64));
  const int reps = static_cast<int>(args.config().get_int("reps", 400));
  unsigned threads = beesim::bench::threads_arg(args);
  if (threads == 0) threads = std::max(2u, u::default_thread_count());
  const bool require = args.config().get_int("require", 0) != 0;
  const double min_speedup = args.config().get_double("min_speedup", 5.0);

  beesim::bench::banner("Pool microbench",
                        "persistent executor vs spawn-per-call dispatch");
  std::printf("  region: %zu tasks, %u participants, median of %d reps\n\n",
              tasks, threads, reps);

  // Warm both paths (pool worker start-up, allocator, branch caches).
  std::atomic<std::uint64_t> sink{0};
  auto tiny = [&sink](std::size_t i) {
    sink.fetch_add(i + 1, std::memory_order_relaxed);
  };
  u::parallel_for(tasks, tiny, threads);
  spawn_per_call_for(tasks, tiny, threads);

  // -- dispatch: near-empty bodies, overhead dominates ------------------
  const double pool_us = time_region_us(
      reps, [&] { u::parallel_for(tasks, tiny, threads); });
  const double spawn_us = time_region_us(
      reps, [&] { spawn_per_call_for(tasks, tiny, threads); });
  const double speedup = pool_us > 0.0 ? spawn_us / pool_us : 0.0;

  std::printf("  small-grain dispatch (%zu near-empty tasks):\n", tasks);
  std::printf("    pool        %10.2f us/region\n", pool_us);
  std::printf("    spawn/call  %10.2f us/region\n", spawn_us);
  std::printf("    speedup     %10.2fx\n\n", speedup);

  // -- grain: arithmetic bodies, compute starts to amortize spawn -------
  std::vector<double> cells(tasks * 64, 1.0);
  auto chunky = [&cells, tasks](std::size_t i) {
    double acc = 0.0;
    for (std::size_t k = 0; k < 64; ++k)
      acc += cells[i * 64 + k] * static_cast<double>(k + 1);
    cells[i * 64] = acc / static_cast<double>(tasks);
  };
  const double pool_grain_us = time_region_us(
      std::max(1, reps / 4), [&] { u::parallel_for(tasks, chunky, threads); });
  const double spawn_grain_us = time_region_us(
      std::max(1, reps / 4),
      [&] { spawn_per_call_for(tasks, chunky, threads); });
  std::printf("  medium-grain dispatch (64 mul-adds per task):\n");
  std::printf("    pool        %10.2f us/region\n", pool_grain_us);
  std::printf("    spawn/call  %10.2f us/region\n\n", spawn_grain_us);

  // -- steal: sustained tiny-task throughput + scheduler counters -------
  const auto before = u::TaskPool::instance().stats();
  const int steal_reps = std::max(1, reps / 2);
  const auto steal_start = Clock::now();
  for (int r = 0; r < steal_reps; ++r)
    u::parallel_for(tasks, tiny, threads);
  const double steal_seconds =
      std::chrono::duration<double>(Clock::now() - steal_start).count();
  const auto after = u::TaskPool::instance().stats();
  const double executed =
      static_cast<double>(steal_reps) * static_cast<double>(tasks);
  const double tasks_per_sec =
      steal_seconds > 0.0 ? executed / steal_seconds : 0.0;

  std::printf("  sustained throughput (%d regions back to back):\n",
              steal_reps);
  std::printf("    indices/sec %10.0f\n", tasks_per_sec);
  std::printf("    pool counters: tasks +%llu, steals +%llu, parks +%llu\n\n",
              static_cast<unsigned long long>(after.tasks - before.tasks),
              static_cast<unsigned long long>(after.steals - before.steals),
              static_cast<unsigned long long>(after.parks - before.parks));

  std::printf("  pool_dispatch_us=%.3f\n", pool_us);
  std::printf("  spawn_dispatch_us=%.3f\n", spawn_us);
  std::printf("  dispatch_speedup=%.2f\n", speedup);
  std::printf("  steal_tasks_per_sec=%.0f\n", tasks_per_sec);
  std::printf("  pool_steals=%llu\n",
              static_cast<unsigned long long>(after.steals - before.steals));
  std::printf("  pool_parks=%llu\n",
              static_cast<unsigned long long>(after.parks - before.parks));

  if (require && speedup < min_speedup) {
    std::fprintf(stderr,
                 "error: dispatch speedup %.2fx below required %.2fx\n",
                 speedup, min_speedup);
    return 1;
  }
  (void)sink;
  return 0;
}
