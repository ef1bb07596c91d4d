#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/units.hpp"

namespace beesim::sim {

/// Simulated time in seconds since the start of the simulation.
using SimTime = beesim::util::Seconds;

/// Handle used to cancel a scheduled event. Packs the callback slot index
/// (low 32 bits, biased by one so 0 is never a valid id) with the slot's
/// generation counter (high 32 bits). Freeing a slot bumps its
/// generation, so a stale handle fails the O(1) validity check instead of
/// cancelling whatever event occupies the slot now.
using EventId = std::uint64_t;

/// Discrete-event simulation engine.
///
/// Events are callbacks ordered by (time, insertion sequence); the
/// sequence tie-break makes runs deterministic regardless of container
/// internals, which the property tests rely on (same seed => identical
/// traces). That (time, seq) order is the engine's contract, guarded by
/// EngineDeterminism.MatchesSeedEngineOrder.
///
/// Callbacks live in a vector of slots (callback + generation) recycled
/// through a free list; the queue is a binary heap of (time, seq, slot,
/// gen) entries. Cancelling bumps the slot's generation and frees it, so
/// the heap entry goes stale and is dropped when it reaches the top. No
/// DES run in the repo holds more than three pending events at once
/// (sim.engine.max_queue_depth), so nothing here is tuned for deep queues.
///
/// The engine is single-threaded by design: every experiment in the paper
/// is a closed-form or per-entity computation, and fleet-level parallelism
/// is applied *across* independent engines (see hive::run_hives_parallel
/// and the bench harnesses), never inside one engine, so no
/// synchronization is needed on the hot path.
class Engine {
 public:
  using Callback = std::function<void(Engine&)>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `at` (must be >= now()).
  EventId schedule_at(SimTime at, Callback fn);

  /// Schedules `fn` after a relative delay (must be >= 0).
  EventId schedule_after(SimTime delay, Callback fn);

  /// Cancels a pending event; returns false if it already ran, was
  /// cancelled, or is the event currently executing. O(1).
  bool cancel(EventId id);

  /// Runs until the queue drains or `until` is reached, whichever is first.
  /// Advances now() to `until` even if the queue drains earlier, so energy
  /// integration over a fixed horizon is exact.
  void run_until(SimTime until);

  /// Runs until the queue is empty.
  void run();

  /// Pending (non-cancelled) event count.
  std::size_t pending() const noexcept { return live_; }

  /// Total number of events executed so far.
  std::uint64_t executed() const noexcept { return executed_; }

 private:
  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;
  };

  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  void execute_top();
  void free_slot(std::uint32_t slot);
  void flush_metrics() noexcept;

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Entry> queue_;  ///< binary heap, earliest (at, seq) on top

  // Lifetime counters, plain members (no atomics) so the hot loop stays
  // free of instrumentation; deltas are flushed to the obs registry at
  // the end of each run()/run_until() call and on destruction.
  std::uint64_t scheduled_total_ = 0;
  std::uint64_t cancelled_total_ = 0;
  std::size_t max_live_ = 0;
  std::uint64_t flushed_scheduled_ = 0;
  std::uint64_t flushed_executed_ = 0;
  std::uint64_t flushed_cancelled_ = 0;
};

/// Repeats a callback every `period` seconds starting at `start`. The
/// callback may stop the repetition by calling stop().
///
/// Each firing schedules the next one after the callback returns, so an
/// event the callback schedules for the same instant as the next firing
/// runs first, and stop() from inside the callback leaves nothing behind.
class PeriodicTask {
 public:
  using Callback = std::function<void(Engine&, PeriodicTask&)>;

  PeriodicTask(Engine& engine, SimTime start, SimTime period, Callback fn);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool stopped() const noexcept { return stopped_; }
  SimTime period() const noexcept { return period_; }
  /// Adjusts the period for subsequent firings.
  void set_period(SimTime period);

 private:
  void arm(Engine& engine, SimTime at);

  Engine* engine_;
  SimTime period_;
  Callback fn_;
  EventId pending_ = 0;
  bool stopped_ = false;
};

}  // namespace beesim::sim
