// DES core microbenchmark: events/sec of sim::Engine across four
// workload shapes:
//
//   schedule  — schedule N one-shot events at random times, drain.
//   cancel    — schedule N, cancel every other id, drain (stale heap
//               entries are dropped as they reach the top).
//   periodic  — K periodic wake-up tasks over a horizon, each firing
//               spawning a `chain`-step one-shot task sequence (the
//               paper's wake-up routine: sample → process → infer →
//               uplink). Each chain closure carries 32 bytes of sequence
//               state, more than std::function's 16-byte inline buffer,
//               so every step is boxed on the heap. The production step
//               closures (SimDevice::step, the hive's periodic tasks)
//               capture only `this` and stay inline.
//   multihive — H independent engines, each running the periodic shape,
//               fanned out over util::parallel_for worker threads.
//
// Usage: des_microbench [mode=all|schedule|cancel|periodic|multihive]
//                       [events=500000] [tasks=16] [chain=4] [hives=8]
//                       [threads=0] [reps=3]
//
// `tasks` defaults to 16: since the farm refactor every engine hosts a
// single hive, so the honest periodic density is a handful of sensor/
// uplink routines per engine, not hundreds (fig2 executes ~1.9k
// events/hive/day). Crank it up to stress deep-heap behaviour.
//
// Each mode runs `reps` repetitions and reports the best run (min-time,
// the standard throughput-microbench estimator: the best rep is the one
// least perturbed by scheduler noise).

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sim/engine.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using beesim::util::Rng;
namespace sim = beesim::sim;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ------------------------------------------------------- wake-up chain
// Per-step sequence state carried inside each chained closure: 32 bytes,
// a synthetic payload (SimDevice's step closures capture only `this`),
// which std::function boxes on the heap.
struct ChainState {
  std::uint64_t* fired;
  double step_delay;
  double energy_acc;
  std::uint32_t remaining;
  std::uint32_t task_index;
};
static_assert(sizeof(ChainState) == 32);

/// One step of the wake-up task sequence: account, then schedule the
/// next step.
void run_chain(sim::Engine& eng, ChainState st) {
  ++*st.fired;
  st.energy_acc += st.step_delay * static_cast<double>(st.task_index);
  if (st.remaining == 0) return;
  ChainState next = st;
  --next.remaining;
  ++next.task_index;
  eng.schedule_at(eng.now() + st.step_delay,
                  [next](sim::Engine& e) { run_chain(e, next); });
}

void start_chain(sim::Engine& eng, std::uint64_t* fired, int chain) {
  if (chain <= 0) return;
  ChainState st{fired, 0.01, 0.0, static_cast<std::uint32_t>(chain - 1),
                0};
  eng.schedule_at(eng.now() + st.step_delay,
                  [st](sim::Engine& e) { run_chain(e, st); });
}

// ------------------------------------------------------- workloads
// Each returns executed events per second.

/// N one-shot events at Rng-drawn times, then drain.
double bench_schedule(std::uint64_t events) {
  sim::Engine engine;
  std::uint64_t fired = 0;
  Rng rng(42);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < events; ++i)
    engine.schedule_at(rng.uniform(0.0, 1e6),
                       [&fired](sim::Engine&) { ++fired; });
  engine.run();
  return static_cast<double>(fired) / seconds_since(start);
}

/// N events, every other one cancelled before the drain: half the heap
/// entries go stale and are skipped as they reach the top.
double bench_cancel(std::uint64_t events) {
  sim::Engine engine;
  std::uint64_t fired = 0;
  Rng rng(43);
  std::vector<sim::EventId> ids;
  ids.reserve(events);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < events; ++i)
    ids.push_back(engine.schedule_at(rng.uniform(0.0, 1e6),
                                     [&fired](sim::Engine&) { ++fired; }));
  for (std::uint64_t i = 0; i < events; i += 2) engine.cancel(ids[i]);
  engine.run();
  return static_cast<double>(events) / seconds_since(start);
}

/// K periodic wake-up tasks (staggered starts, ~unit periods), each
/// firing spawning a `chain`-step task sequence, `events` executed
/// events in total — the per-hive wake-up shape. Timed after a warm-up
/// tenth of the horizon.
double bench_periodic(std::uint64_t events, int tasks, int chain) {
  // Each cycle executes 1 wake-up + `chain` sequence steps.
  const double horizon = static_cast<double>(events) /
                         static_cast<double>(tasks * (1 + chain));
  sim::Engine engine;
  std::uint64_t fired = 0;
  Rng rng(44);
  std::vector<std::unique_ptr<sim::PeriodicTask>> fleet;
  fleet.reserve(static_cast<std::size_t>(tasks));
  for (int i = 0; i < tasks; ++i)
    fleet.push_back(std::make_unique<sim::PeriodicTask>(
        engine, rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5),
        [&fired, chain](sim::Engine& eng, sim::PeriodicTask&) {
          ++fired;
          start_chain(eng, &fired, chain);
        }));
  // Warm-up: grows the slots, the heap and the free list to the
  // workload's high-water mark.
  engine.run_until(horizon * 0.1);
  const std::uint64_t fired_before = fired;
  const auto start = std::chrono::steady_clock::now();
  engine.run_until(horizon);
  return static_cast<double>(fired - fired_before) / seconds_since(start);
}

/// H independent engines, each running the periodic wake-up shape,
/// across util::parallel_for workers. Aggregate events/sec.
double bench_multihive(std::uint64_t events, int tasks, int chain,
                       int hives, unsigned threads) {
  const double horizon = static_cast<double>(events) /
                         static_cast<double>(tasks * (1 + chain));
  std::vector<std::uint64_t> fired(static_cast<std::size_t>(hives), 0);
  const auto start = std::chrono::steady_clock::now();
  beesim::util::parallel_for(
      static_cast<std::size_t>(hives),
      [&](std::size_t h) {
        sim::Engine engine;
        Rng rng = Rng::for_stream(44, h);
        std::vector<std::unique_ptr<sim::PeriodicTask>> fleet;
        fleet.reserve(static_cast<std::size_t>(tasks));
        std::uint64_t local = 0;
        for (int i = 0; i < tasks; ++i)
          fleet.push_back(std::make_unique<sim::PeriodicTask>(
              engine, rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5),
              [&local, chain](sim::Engine& eng, sim::PeriodicTask&) {
                ++local;
                start_chain(eng, &local, chain);
              }));
        engine.run_until(horizon);
        fired[h] = local;
      },
      threads);
  const double elapsed = seconds_since(start);
  std::uint64_t total = 0;
  for (const auto f : fired) total += f;
  return static_cast<double>(total) / elapsed;
}

/// Runs `fn` `reps` times and keeps the best rep (max events/sec).
template <class F>
double best_of(int reps, F&& fn) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    const double eps = fn();
    if (eps > best) best = eps;
  }
  return best;
}

void print_result(const char* mode, double eps) {
  std::printf("  %-10s %8.2fM events/s\n", mode, eps / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  beesim::bench::Args args(argc, argv);
  const std::string mode = args.config().get_string("mode", "all");
  const auto events =
      static_cast<std::uint64_t>(args.config().get_int("events", 500000));
  const int tasks = static_cast<int>(args.config().get_int("tasks", 16));
  const int chain = static_cast<int>(args.config().get_int("chain", 4));
  const int hives = static_cast<int>(args.config().get_int("hives", 8));
  const auto threads = beesim::bench::threads_arg(args);
  const int reps = static_cast<int>(args.config().get_int("reps", 3));

  beesim::bench::banner("DES microbench", "sim::Engine, events/sec");
  std::printf(
      "\nWorkload: %llu events, %d periodic tasks, %d-step wake-up "
      "chains, %d hives\n\n",
      static_cast<unsigned long long>(events), tasks, chain, hives);

  const bool all = mode == "all";
  if (all || mode == "schedule")
    print_result("schedule",
                 best_of(reps, [&] { return bench_schedule(events); }));
  if (all || mode == "cancel")
    print_result("cancel", best_of(reps, [&] { return bench_cancel(events); }));
  if (all || mode == "periodic")
    print_result("periodic", best_of(reps, [&] {
                   return bench_periodic(events, tasks, chain);
                 }));
  if (all || mode == "multihive")
    print_result("multihive", best_of(reps, [&] {
                   return bench_multihive(events / 4, tasks, chain, hives,
                                          threads);
                 }));
  return 0;
}
