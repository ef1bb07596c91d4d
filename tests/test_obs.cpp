#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "fault/fault.hpp"
#include "fleet_oracle.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sim/engine.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace obs = beesim::obs;
namespace sim = beesim::sim;
namespace util = beesim::util;

namespace {

/// Flips the global toggle for one test and restores it on exit, so tests
/// never leak instrumentation state into each other.
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) : previous_(obs::enabled()) {
    obs::set_enabled(on);
  }
  ~EnabledGuard() { obs::set_enabled(previous_); }

 private:
  bool previous_;
};

}  // namespace

// ------------------------------------------------------------------ Counter

TEST(ObsCounter, CountsWhenEnabled) {
  EnabledGuard guard(true);
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, NoOpWhenDisabled) {
  EnabledGuard guard(false);
  obs::Counter c;
  c.inc();
  c.inc(100);
  EXPECT_EQ(c.value(), 0u);
}

// -------------------------------------------------------------------- Gauge

TEST(ObsGauge, SetAddMax) {
  EnabledGuard guard(true);
  obs::Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.update_max(2.0);  // below current: no change
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.update_max(9.0);
  EXPECT_DOUBLE_EQ(g.value(), 9.0);
}

TEST(ObsGauge, NoOpWhenDisabled) {
  EnabledGuard guard(false);
  obs::Gauge g;
  g.set(3.5);
  g.add(1.0);
  g.update_max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// ---------------------------------------------------------------- Histogram

TEST(ObsHistogram, BucketsByUpperBoundInclusive) {
  EnabledGuard guard(true);
  obs::Histogram h({1.0, 2.0, 5.0});
  h.observe(0.5);  // <= 1
  h.observe(1.0);  // <= 1 (inclusive)
  h.observe(1.5);  // <= 2
  h.observe(5.0);  // <= 5
  h.observe(99.0); // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 5.0 + 99.0);
}

TEST(ObsHistogram, RejectsBadBounds) {
  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(ObsHistogram, LinearBounds) {
  const auto bounds = obs::Histogram::linear_bounds(0.0, 10.0, 5);
  EXPECT_EQ(bounds, (std::vector<double>{2.0, 4.0, 6.0, 8.0, 10.0}));
  EXPECT_THROW(obs::Histogram::linear_bounds(1.0, 1.0, 3),
               std::invalid_argument);
}

// -------------------------------------------------------------------- Timer

TEST(ObsTimer, RecordsStatistics) {
  EnabledGuard guard(true);
  obs::Timer t;
  EXPECT_DOUBLE_EQ(t.min_seconds(), 0.0);  // never recorded
  t.record(2.0);
  t.record(4.0);
  t.record(3.0);
  EXPECT_EQ(t.count(), 3u);
  EXPECT_DOUBLE_EQ(t.total_seconds(), 9.0);
  EXPECT_DOUBLE_EQ(t.min_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(t.max_seconds(), 4.0);
  EXPECT_DOUBLE_EQ(t.mean_seconds(), 3.0);
  t.reset();
  EXPECT_EQ(t.count(), 0u);
  EXPECT_DOUBLE_EQ(t.min_seconds(), 0.0);
}

TEST(ObsTimer, ScopedTimerMeasuresScope) {
  EnabledGuard guard(true);
  obs::Timer t;
  {
    obs::ScopedTimer scoped(t);
    volatile double sink = 0.0;
    for (int i = 0; i < 1000; ++i) sink = sink + 1.0;
  }
  EXPECT_EQ(t.count(), 1u);
  EXPECT_GE(t.total_seconds(), 0.0);
  EXPECT_GE(t.max_seconds(), t.min_seconds());
}

TEST(ObsTimer, ScopedTimerNoOpWhenDisabled) {
  EnabledGuard guard(false);
  obs::Timer t;
  { obs::ScopedTimer scoped(t); }
  EXPECT_EQ(t.count(), 0u);
}

// ----------------------------------------------------------------- Registry

TEST(ObsRegistry, ReturnsStableInstruments) {
  EnabledGuard guard(true);
  obs::Registry reg;
  obs::Counter& a = reg.counter("x.count");
  obs::Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(ObsRegistry, RejectsKindCollisionsAndEmptyNames) {
  obs::Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.timer("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x", {1.0}), std::invalid_argument);
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
}

TEST(ObsRegistry, SnapshotAndResetValues) {
  EnabledGuard guard(true);
  obs::Registry reg;
  reg.counter("c").inc(7);
  reg.gauge("g").set(2.5);
  reg.timer("t").record(1.0);
  reg.histogram("h", {1.0, 2.0}).observe(1.5);

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.5);
  EXPECT_EQ(snap.timers.at("t").count, 1u);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
  EXPECT_EQ(snap.histograms.at("h").bucket_counts.size(), 3u);

  reg.reset_values();
  const auto zero = reg.snapshot();
  EXPECT_EQ(zero.counters.at("c"), 0u);
  EXPECT_DOUBLE_EQ(zero.gauges.at("g"), 0.0);
  EXPECT_EQ(zero.timers.at("t").count, 0u);
  EXPECT_EQ(zero.histograms.at("h").count, 0u);
}

TEST(ObsRegistry, CatalogRegistersEveryBuiltinMetric) {
  obs::Registry reg;
  obs::register_catalog(reg);
  const auto snap = reg.snapshot();
  // Spot-check one name per instrumented module; all must exist at zero.
  EXPECT_EQ(snap.counters.at(obs::metric::kEngineEventsExecuted), 0u);
  EXPECT_EQ(snap.counters.at(obs::metric::kAllocatorCalls), 0u);
  EXPECT_EQ(snap.counters.at(obs::metric::kFleetRequestsEdge), 0u);
  EXPECT_EQ(snap.counters.at(obs::metric::kLinkTransfers), 0u);
  EXPECT_EQ(snap.counters.at(obs::metric::kBatteryDepletions), 0u);
  EXPECT_TRUE(snap.gauges.count(obs::metric::kEngineMaxQueueDepth));
  EXPECT_TRUE(
      snap.histograms.count(obs::metric::kAllocatorSlotOccupancy));
}

// -------------------------------------------------------------- Concurrency

TEST(ObsConcurrency, ParallelIncrementsAreLossless) {
  EnabledGuard guard(true);
  obs::Registry reg;
  obs::Counter& counter = reg.counter("par.count");
  obs::Gauge& gauge = reg.gauge("par.sum");
  obs::Gauge& peak = reg.gauge("par.max");
  obs::Histogram& hist = reg.histogram("par.hist", {64.0, 128.0, 256.0});

  constexpr std::size_t kTasks = 64;
  constexpr int kRepeats = 1000;
  util::parallel_for(kTasks, [&](std::size_t i) {
    for (int r = 0; r < kRepeats; ++r) {
      counter.inc();
      gauge.add(1.0);
      peak.update_max(static_cast<double>(i));
      hist.observe(static_cast<double>(i));
    }
  });

  EXPECT_EQ(counter.value(), kTasks * kRepeats);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kTasks * kRepeats));
  EXPECT_DOUBLE_EQ(peak.value(), static_cast<double>(kTasks - 1));
  EXPECT_EQ(hist.count(), kTasks * kRepeats);
  // Indices 0..63 all land in the first bucket (<= 64).
  EXPECT_EQ(hist.bucket_count(0), kTasks * kRepeats);
}

TEST(ObsConcurrency, ParallelRegistrationIsSafe) {
  obs::Registry reg;
  util::parallel_for(32, [&](std::size_t i) {
    // Half the tasks race on the same name, half create distinct ones.
    reg.counter("shared.count");
    reg.counter("task." + std::to_string(i % 4) + ".count");
  });
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.size(), 5u);  // shared + 4 distinct
}

// ------------------------------------------------------------ Serialization

namespace {

obs::Registry& populated(obs::Registry& reg) {
  EnabledGuard guard(true);
  reg.counter("a.events").inc(3);
  reg.gauge("b.level").set(1.25);
  reg.timer("c.phase").record(0.5);
  reg.timer("c.phase").record(1.5);
  obs::Histogram& h = reg.histogram("d.sizes", {10.0, 20.0});
  h.observe(5.0);
  h.observe(15.0);
  h.observe(25.0);
  return reg;
}

/// Parses the flat report CSV back into (kind,name,field) -> value.
std::map<std::string, double> parse_csv(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "kind,name,field,value");
  while (std::getline(in, line)) {
    const auto last = line.rfind(',');
    out[line.substr(0, last)] = std::stod(line.substr(last + 1));
  }
  return out;
}

}  // namespace

TEST(ObsReport, CsvRoundTripsEveryScalar) {
  obs::Registry reg;
  const auto fields = parse_csv(obs::to_csv(populated(reg)));
  EXPECT_DOUBLE_EQ(fields.at("counter,a.events,value"), 3.0);
  EXPECT_DOUBLE_EQ(fields.at("gauge,b.level,value"), 1.25);
  EXPECT_DOUBLE_EQ(fields.at("timer,c.phase,count"), 2.0);
  EXPECT_DOUBLE_EQ(fields.at("timer,c.phase,total_s"), 2.0);
  EXPECT_DOUBLE_EQ(fields.at("timer,c.phase,min_s"), 0.5);
  EXPECT_DOUBLE_EQ(fields.at("timer,c.phase,max_s"), 1.5);
  EXPECT_DOUBLE_EQ(fields.at("timer,c.phase,mean_s"), 1.0);
  EXPECT_DOUBLE_EQ(fields.at("histogram,d.sizes,count"), 3.0);
  EXPECT_DOUBLE_EQ(fields.at("histogram,d.sizes,sum"), 45.0);
  EXPECT_DOUBLE_EQ(fields.at("histogram,d.sizes,le:10"), 1.0);
  EXPECT_DOUBLE_EQ(fields.at("histogram,d.sizes,le:20"), 1.0);
  EXPECT_DOUBLE_EQ(fields.at("histogram,d.sizes,overflow"), 1.0);
}

TEST(ObsReport, JsonCarriesEveryInstrument) {
  obs::Registry reg;
  const std::string json = obs::to_json(populated(reg));
  // Structure: all four sections, each populated instrument present with
  // its exact value. (Validity against a real parser is exercised by the
  // bench smoke test reading --metrics-out output.)
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.events\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"b.level\": 1.25"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2, \"total_s\": 2"), std::string::npos);
  EXPECT_NE(json.find("{\"le\": 10, \"count\": 1}"), std::string::npos);
  EXPECT_NE(json.find("\"overflow\": 1"), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity for the JSON.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ------------------------------------------------------------- Determinism

namespace {

/// Runs a small but busy engine scenario (periodic wake-ups, stochastic
/// rescheduling, cancellations) and returns the executed event trace.
std::vector<std::pair<double, int>> run_scenario() {
  sim::Engine engine;
  util::Rng rng(1234);
  std::vector<std::pair<double, int>> trace;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(rng.uniform(0.0, 50.0), [&trace, i](sim::Engine& e) {
      trace.emplace_back(e.now(), i);
    });
  }
  sim::PeriodicTask heartbeat(
      engine, 1.0, 3.0, [&](sim::Engine& e, sim::PeriodicTask& task) {
        trace.emplace_back(e.now(), 100);
        // Stochastic follow-up, sometimes cancelled before it fires.
        const auto id = e.schedule_after(
            rng.uniform(0.5, 2.0),
            [&trace](sim::Engine& eng) { trace.emplace_back(eng.now(), 200); });
        if (rng.chance(0.5)) e.cancel(id);
        if (e.now() > 40.0) task.stop();
      });
  engine.run_until(60.0);
  return trace;
}

}  // namespace

TEST(ObsDeterminism, EnablingMetricsDoesNotChangeEngineTrace) {
  std::vector<std::pair<double, int>> off_trace;
  {
    EnabledGuard guard(false);
    off_trace = run_scenario();
  }
  std::vector<std::pair<double, int>> on_trace;
  {
    EnabledGuard guard(true);
    obs::register_catalog(obs::registry());
    on_trace = run_scenario();
    // The instrumentation did observe the run...
    EXPECT_GT(obs::registry()
                  .snapshot()
                  .counters.at(obs::metric::kEngineEventsExecuted),
              0u);
  }
  // ...and the simulated behaviour is bit-identical anyway.
  ASSERT_EQ(off_trace.size(), on_trace.size());
  EXPECT_EQ(off_trace, on_trace);
}

TEST(ObsDeterminism, EnablingMetricsDoesNotChangeLossyFleetSweep) {
  // The same property for the Section VI simulator under every loss
  // model: the saturation counter used to be incremented inside
  // saturation_factor without an enabled() gate; this pins the counting
  // to instrumented runs and the physics to both. Uninstrumented sweeps
  // price cycles through the per-point memo while instrumented ones take
  // the plain per-cycle path, so this also holds the memo to the plain
  // path, raw field for raw field — for the lossy sweep and for a
  // resilient sweep whose plan mixes clean, faulted and degraded cycles.
  beesim::core::FleetParams fleet =
      beesim::core::FleetParams::paper_default();
  fleet.loss = beesim::core::LossConfig::all();
  beesim::core::LargeScaleSimulator sim(fleet);
  const std::vector<int> counts{50, 200, 400};
  constexpr int kCycles = 200;
  beesim::fault::FaultPlan plan = beesim::fault::FaultPlan::random_outages(
      5, kCycles, 0.15, 3, beesim::fault::FaultKind::kCloudOutage);
  plan.add({beesim::fault::FaultKind::kCloudBrownout, 40, 59, 0.5})
      .add({beesim::fault::FaultKind::kLinkOutage, 120, 129, 1.0})
      .add({beesim::fault::FaultKind::kBatteryDerate, 150, 159, 0.7});
  const beesim::core::ResilientFleet resilient(fleet, plan);

  std::vector<beesim::core::SweepPoint> off_points;
  std::vector<beesim::core::ResiliencePoint> off_resilient;
  {
    EnabledGuard guard(false);
    off_points = sim.sweep(counts, 17, kCycles);
    off_resilient = resilient.sweep(counts, 17, kCycles);
  }
  std::vector<beesim::core::SweepPoint> on_points;
  std::vector<beesim::core::ResiliencePoint> on_resilient;
  {
    EnabledGuard guard(true);
    obs::register_catalog(obs::registry());
    obs::registry().reset_values();
    on_points = sim.sweep(counts, 17, kCycles);
    const auto snap = obs::registry().snapshot();
    // Fill-first at 400 clients packs slots to max_parallel, so the
    // saturation penalty fires and is counted — but only when enabled.
    EXPECT_GT(snap.counters.at(obs::metric::kLossSaturatedSlots), 0u);
    EXPECT_EQ(snap.counters.at(obs::metric::kFleetSweepPoints),
              counts.size());
    // Every cycle is counted and allocates: no memo hit skips the
    // per-cycle path while obs is on.
    EXPECT_EQ(snap.counters.at(obs::metric::kFleetCycles),
              counts.size() * kCycles);
    EXPECT_EQ(snap.counters.at(obs::metric::kAllocatorCalls),
              counts.size() * kCycles);
    on_resilient = resilient.sweep(counts, 17, kCycles);
    EXPECT_GT(obs::registry().snapshot().counters.at(
                  obs::metric::kFleetDegradedCycles),
              0u);
  }
  ASSERT_EQ(off_points.size(), on_points.size());
  for (std::size_t i = 0; i < off_points.size(); ++i)
    beesim::oracle::expect_same_point(off_points[i], on_points[i]);
  ASSERT_EQ(off_resilient.size(), on_resilient.size());
  for (std::size_t i = 0; i < off_resilient.size(); ++i)
    beesim::oracle::expect_same_point(off_resilient[i], on_resilient[i]);
}

TEST(ObsHistogram, BulkObserveMatchesRepeatedObserve) {
  EnabledGuard guard(true);
  obs::Histogram repeated({2.0, 4.0, 8.0});
  obs::Histogram bulk({2.0, 4.0, 8.0});
  for (int i = 0; i < 1000; ++i) repeated.observe(3.0);
  bulk.observe(3.0, 1000);
  EXPECT_EQ(bulk.count(), repeated.count());
  EXPECT_EQ(bulk.bucket_count(1), repeated.bucket_count(1));
  // 3.0 is exactly representable, so even the sums agree bitwise.
  EXPECT_DOUBLE_EQ(bulk.sum(), repeated.sum());
  bulk.observe(5.0, 0);  // n = 0 is a no-op
  EXPECT_EQ(bulk.count(), 1000u);
}

