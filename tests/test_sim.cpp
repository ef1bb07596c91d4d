#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace sim = beesim::sim;

// ------------------------------------------------------------------- Engine

TEST(Engine, StartsAtTimeZero) {
  sim::Engine engine;
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Engine, ExecutesInTimeOrder) {
  sim::Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&](sim::Engine&) { order.push_back(3); });
  engine.schedule_at(1.0, [&](sim::Engine&) { order.push_back(1); });
  engine.schedule_at(2.0, [&](sim::Engine&) { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByInsertionOrder) {
  sim::Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    engine.schedule_at(1.0, [&, i](sim::Engine&) { order.push_back(i); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NowAdvancesToEventTime) {
  sim::Engine engine;
  double seen = -1.0;
  engine.schedule_at(7.5, [&](sim::Engine& e) { seen = e.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(Engine, RunUntilStopsAtHorizonAndAdvancesClock) {
  sim::Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&](sim::Engine&) { ++fired; });
  engine.schedule_at(10.0, [&](sim::Engine&) { ++fired; });
  engine.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
  engine.run_until(20.0);
  EXPECT_EQ(fired, 2);
}

TEST(Engine, EventAtHorizonBoundaryRuns) {
  sim::Engine engine;
  bool fired = false;
  engine.schedule_at(5.0, [&](sim::Engine&) { fired = true; });
  engine.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, ScheduleAfterIsRelative) {
  sim::Engine engine;
  double seen = -1.0;
  engine.schedule_at(2.0, [&](sim::Engine& e) {
    e.schedule_after(3.0, [&](sim::Engine& e2) { seen = e2.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Engine, RejectsSchedulingInThePast) {
  sim::Engine engine;
  engine.schedule_at(1.0, [](sim::Engine&) {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(0.5, [](sim::Engine&) {}),
               std::invalid_argument);
  EXPECT_THROW(engine.schedule_after(-1.0, [](sim::Engine&) {}),
               std::invalid_argument);
}

TEST(Engine, RejectsNullCallback) {
  sim::Engine engine;
  EXPECT_THROW(engine.schedule_at(1.0, sim::Engine::Callback{}),
               std::invalid_argument);
}

TEST(Engine, CancelPreventsExecution) {
  sim::Engine engine;
  bool fired = false;
  const auto id = engine.schedule_at(1.0, [&](sim::Engine&) { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // already cancelled
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CountsExecutedEvents) {
  sim::Engine engine;
  for (int i = 0; i < 10; ++i)
    engine.schedule_at(static_cast<double>(i), [](sim::Engine&) {});
  engine.run();
  EXPECT_EQ(engine.executed(), 10u);
}

TEST(Engine, EventsScheduledDuringRunExecute) {
  sim::Engine engine;
  int depth = 0;
  std::function<void(sim::Engine&)> chain = [&](sim::Engine& e) {
    if (++depth < 5) e.schedule_after(1.0, chain);
  };
  engine.schedule_at(0.0, chain);
  engine.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
}

// ------------------------------------------------------------- PeriodicTask

TEST(PeriodicTask, FiresAtFixedInterval) {
  sim::Engine engine;
  std::vector<double> times;
  sim::PeriodicTask task(engine, 10.0, 5.0,
                         [&](sim::Engine& e, sim::PeriodicTask&) {
                           times.push_back(e.now());
                         });
  engine.run_until(26.0);
  EXPECT_EQ(times, (std::vector<double>{10.0, 15.0, 20.0, 25.0}));
}

TEST(PeriodicTask, StopHaltsFutureFirings) {
  sim::Engine engine;
  int count = 0;
  sim::PeriodicTask task(engine, 1.0, 1.0,
                         [&](sim::Engine&, sim::PeriodicTask& t) {
                           if (++count == 3) t.stop();
                         });
  engine.run_until(100.0);
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(task.stopped());
}

TEST(PeriodicTask, DestructorCancelsPending) {
  sim::Engine engine;
  int count = 0;
  {
    sim::PeriodicTask task(engine, 1.0, 1.0,
                           [&](sim::Engine&, sim::PeriodicTask&) { ++count; });
  }
  engine.run_until(10.0);
  EXPECT_EQ(count, 0);
}

TEST(PeriodicTask, PeriodCanChangeMidRun) {
  sim::Engine engine;
  std::vector<double> times;
  sim::PeriodicTask task(engine, 1.0, 1.0,
                         [&](sim::Engine& e, sim::PeriodicTask& t) {
                           times.push_back(e.now());
                           t.set_period(10.0);
                         });
  engine.run_until(25.0);
  EXPECT_EQ(times, (std::vector<double>{1.0, 11.0, 21.0}));
}

TEST(PeriodicTask, RearmFollowsTheCallback) {
  sim::Engine engine;
  std::vector<std::pair<double, int>> log;  // (time, 0 = task, 1 = helper)
  std::size_t pending_after_stop = 99;
  sim::PeriodicTask task(engine, 1.0, 2.0,
                         [&](sim::Engine& e, sim::PeriodicTask& t) {
                           log.emplace_back(e.now(), 0);
                           if (e.now() == 5.0) {
                             t.stop();
                             pending_after_stop = e.pending();
                             return;
                           }
                           // Due at the same instant as the next firing,
                           // and scheduled before it: it runs first.
                           e.schedule_at(e.now() + 2.0, [&](sim::Engine& h) {
                             log.emplace_back(h.now(), 1);
                           });
                         });
  engine.run_until(20.0);
  EXPECT_EQ(log, (std::vector<std::pair<double, int>>{
                     {1.0, 0}, {3.0, 1}, {3.0, 0}, {5.0, 1}, {5.0, 0}}));
  EXPECT_EQ(pending_after_stop, 0u);  // no firing left behind by stop()
  EXPECT_TRUE(task.stopped());

  // The executing event cannot cancel itself.
  sim::EventId self = 0;
  bool self_cancelled = true;
  self = engine.schedule_at(21.0, [&](sim::Engine& e) {
    self_cancelled = e.cancel(self);
  });
  engine.run();
  EXPECT_FALSE(self_cancelled);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.executed(), 6u);
}

TEST(PeriodicTask, RejectsNonPositivePeriod) {
  sim::Engine engine;
  EXPECT_THROW(sim::PeriodicTask(engine, 0.0, 0.0,
                                 [](sim::Engine&, sim::PeriodicTask&) {}),
               std::invalid_argument);
}

// ------------------------------------------------------------------- Series

TEST(Series, ZeroOrderHoldSampling) {
  sim::Series s("p");
  s.append(0.0, 1.0);
  s.append(10.0, 3.0);
  EXPECT_DOUBLE_EQ(s.sample_at(-1.0), 0.0);  // before first sample
  EXPECT_DOUBLE_EQ(s.sample_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.sample_at(9.999), 1.0);
  EXPECT_DOUBLE_EQ(s.sample_at(10.0), 3.0);
  EXPECT_DOUBLE_EQ(s.sample_at(100.0), 3.0);
}

TEST(Series, IntegrateIsEnergyForPowerSeries) {
  sim::Series s("p");
  s.append(0.0, 2.0);   // 2 W for 10 s = 20 J
  s.append(10.0, 0.5);  // 0.5 W for 10 s = 5 J
  EXPECT_DOUBLE_EQ(s.integrate(0.0, 20.0), 25.0);
  EXPECT_DOUBLE_EQ(s.mean(0.0, 20.0), 1.25);
}

TEST(Series, IntegratePartialWindow) {
  sim::Series s("p");
  s.append(0.0, 4.0);
  s.append(10.0, 0.0);
  EXPECT_DOUBLE_EQ(s.integrate(5.0, 15.0), 20.0);
}

TEST(Series, RejectsBackwardsTime) {
  sim::Series s("p");
  s.append(5.0, 1.0);
  EXPECT_THROW(s.append(4.0, 1.0), std::invalid_argument);
}

TEST(Series, SameTimestampOverwrites) {
  sim::Series s("p");
  s.append(1.0, 1.0);
  s.append(1.0, 2.0);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.sample_at(1.0), 2.0);
}

TEST(Series, MinMax) {
  sim::Series s("p");
  s.append(0.0, 3.0);
  s.append(1.0, -2.0);
  s.append(2.0, 7.0);
  EXPECT_DOUBLE_EQ(s.min_value(), -2.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 7.0);
}

// ------------------------------------------------------------ TraceRecorder

TEST(TraceRecorder, CreatesSeriesOnDemand) {
  sim::TraceRecorder trace;
  trace.series("a").append(0.0, 1.0);
  trace.series("a").append(1.0, 2.0);
  EXPECT_EQ(trace.series("a").size(), 2u);
  EXPECT_NE(trace.find("a"), nullptr);
  EXPECT_EQ(trace.find("missing"), nullptr);
}

TEST(TraceRecorder, CsvExportHasHeaderAndGrid) {
  sim::TraceRecorder trace;
  trace.series("x").append(0.0, 1.0);
  trace.series("y").append(0.0, 2.0);
  std::ostringstream out;
  trace.write_csv(out, 0.0, 2.0, 1.0);
  const std::string s = out.str();
  EXPECT_NE(s.find("time_s,x,y"), std::string::npos);
  // 1 header + 3 rows (t = 0, 1, 2).
  int lines = 0;
  for (char c : s)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 4);
}

// ------------------------------------------ Slots, ids and cancellation

TEST(EnginePool, CancelTombstonesWithoutExecuting) {
  sim::Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&](sim::Engine&) { ++fired; });
  const auto gone = engine.schedule_at(2.0, [&](sim::Engine&) { ++fired; });
  EXPECT_EQ(engine.pending(), 2u);
  EXPECT_TRUE(engine.cancel(gone));
  EXPECT_EQ(engine.pending(), 1u);    // cancel leaves the live set at once
  EXPECT_FALSE(engine.cancel(gone));  // double-cancel fails
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.executed(), 1u);  // a cancelled event never counts
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(EnginePool, StaleIdCannotCancelRecycledSlot) {
  sim::Engine engine;
  int fired = 0;
  const auto first = engine.schedule_at(1.0, [&](sim::Engine&) { fired = 1; });
  ASSERT_TRUE(engine.cancel(first));
  const auto second =
      engine.schedule_at(1.0, [&](sim::Engine&) { fired = 2; });
  // The freed slot was recycled for `second` (same slot bits, see
  // EventId) with a bumped generation, so the stale handle must fail the
  // validity check instead of cancelling whatever lives in the slot now.
  EXPECT_EQ(first & 0xffffffffu, second & 0xffffffffu);
  EXPECT_NE(first, second);
  EXPECT_FALSE(engine.cancel(first));
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(EnginePool, CancelHeavyRunCompactsTombstones) {
  sim::Engine engine;
  int fired = 0;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 1000; ++i)
    ids.push_back(engine.schedule_at(1.0 + i,
                                     [&fired](sim::Engine&) { ++fired; }));
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (i % 10 != 0) engine.cancel(ids[i]);
  EXPECT_EQ(engine.pending(), 100u);
  engine.run();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(engine.executed(), 100u);
}

TEST(EnginePool, PeriodicRearmsOneSlotInPlace) {
  sim::Engine engine;
  int fired = 0;
  sim::PeriodicTask task(engine, 0.5, 1.0,
                         [&](sim::Engine&, sim::PeriodicTask&) { ++fired; });
  engine.run_until(100.0);
  EXPECT_EQ(fired, 100);
}

TEST(EnginePool, OversizedCaptureSpillsAndStillRuns) {
  sim::Engine engine;
  std::array<double, 16> big{};  // 128 bytes: overflows the inline buffer
  big[0] = 7.0;
  double got = 0.0;
  engine.schedule_at(1.0, [big, &got](sim::Engine&) { got = big[0]; });
  engine.run();
  EXPECT_DOUBLE_EQ(got, 7.0);
}

// ------------------------------------------------- Seed-order contract

namespace {

/// Faithful miniature of the pre-pool engine: a (time, seq)-ordered
/// priority_queue plus an id → std::function hash map (cancel = erase,
/// pop skips erased ids). The pool engine must reproduce this engine's
/// execution order exactly on any workload — the (time, seq) contract is
/// the engine's ABI.
class MiniSeedEngine {
 public:
  using Callback = std::function<void(MiniSeedEngine&)>;

  double now() const noexcept { return now_; }

  std::uint64_t schedule_at(double at, Callback fn) {
    const std::uint64_t id = next_id_++;
    queue_.push({at, seq_++, id});
    callbacks_.emplace(id, std::move(fn));
    return id;
  }

  bool cancel(std::uint64_t id) { return callbacks_.erase(id) > 0; }

  void run_until(double until) {
    while (!queue_.empty()) {
      const Scheduled top = queue_.top();
      const auto it = callbacks_.find(top.id);
      if (it == callbacks_.end()) {  // cancelled: skip the tombstone
        queue_.pop();
        continue;
      }
      if (top.at > until) break;
      queue_.pop();
      Callback fn = std::move(it->second);
      callbacks_.erase(it);
      now_ = top.at;
      fn(*this);
    }
    now_ = until;
  }

 private:
  struct Scheduled {
    double at;
    std::uint64_t seq;
    std::uint64_t id;
    bool operator>(const Scheduled& o) const noexcept {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  std::priority_queue<Scheduled, std::vector<Scheduled>,
                      std::greater<Scheduled>>
      queue_;
  std::unordered_map<std::uint64_t, Callback> callbacks_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t next_id_ = 1;
};

/// Randomized schedule/nest/cancel workload, identical for any engine
/// with the schedule_at/cancel/run_until surface. Every executed event
/// logs (time, tag); because the callbacks also drive the shared Rng,
/// any divergence in execution order derails the whole log, so exact
/// log equality is a strong order check.
template <class E>
struct WorkloadDriver {
  E engine;
  beesim::util::Rng rng{20260806};
  std::vector<std::pair<double, int>> log;
  std::vector<std::uint64_t> ids;
  int next_tag = 0;

  void fire(int tag, int depth) {
    log.emplace_back(engine.now(), tag);
    if (depth >= 3) return;
    const auto kids = rng.uniform_int(0, 2);
    for (std::int64_t k = 0; k < kids; ++k) {
      const double dt = rng.uniform(0.0, 5.0);
      const int t = next_tag++;
      const int d = depth + 1;
      ids.push_back(engine.schedule_at(engine.now() + dt,
                                       [this, t, d](E&) { fire(t, d); }));
    }
    if (!ids.empty() && rng.uniform() < 0.3) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(ids.size()) - 1));
      engine.cancel(ids[pick]);
    }
  }

  std::vector<std::pair<double, int>> run() {
    for (int i = 0; i < 200; ++i) {
      const double at = rng.uniform(0.0, 50.0);
      const int t = next_tag++;
      ids.push_back(
          engine.schedule_at(at, [this, t](E&) { fire(t, 1); }));
    }
    engine.run_until(100.0);
    return log;
  }
};

}  // namespace

TEST(EngineDeterminism, MatchesSeedEngineOrder) {
  WorkloadDriver<sim::Engine> pool;
  WorkloadDriver<MiniSeedEngine> seed;
  const auto pool_log = pool.run();
  const auto seed_log = seed.run();
  ASSERT_GT(pool_log.size(), 200u);  // nesting actually happened
  EXPECT_EQ(pool_log, seed_log);
}

// ----------------------------------------------------------- Determinism

TEST(SimProperty, IdenticalRunsProduceIdenticalTraces) {
  auto run = [] {
    sim::Engine engine;
    sim::TraceRecorder trace;
    sim::PeriodicTask task(engine, 1.0, 2.5,
                           [&](sim::Engine& e, sim::PeriodicTask&) {
                             trace.series("t").append(e.now(), e.now() * 2);
                           });
    engine.run_until(50.0);
    return trace.series("t").values();
  };
  EXPECT_EQ(run(), run());
}
