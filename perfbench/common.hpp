#pragma once

// Shared machinery of the repo benchmark: seeds, digests, the timed
// window and its slices, summary statistics, probe loops, the span
// recorder of the traced run, and the result every workload returns.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/network_sim.hpp"
#include "core/resilience.hpp"
#include "fault/fault.hpp"
#include "util/task_pool.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set during static initialisation, so setup counts from process start.
extern const Clock::time_point kProcessStart;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Timed windows are split into this many equal slices. Throughput is the
/// median over slices, so a burst from a neighbour that hits one slice
/// cannot move it.
inline constexpr int kSlices = 10;
/// Latency samples an OpLog holds. Past this many operations it keeps a
/// uniform reservoir sample, so the benchmark's own memory does not grow
/// with throughput and peak_rss_mb measures the program, not the log.
inline constexpr std::size_t kReservoir = std::size_t{1} << 16;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string reference;  // recorded digests (reference_digests.tsv)
  std::string out_dir = ".";
  /// Feeds every output check a deliberately wrong reference, to show
  /// that each check can fail.
  bool wrong_reference = false;
  /// Runs the workload's setup only and prints how long it took.
  bool setup_only = false;
  /// Setup seconds of earlier --setup-only processes; setup_s is the
  /// median over them and this process's own setup.
  std::vector<double> prior_setups;
};

/// Every generated input derives from the workload seed through this
/// splitmix64 chain over (seed, tag, a, b), so one --seed fixes them all.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag,
                     std::uint64_t a = 0, std::uint64_t b = 0);

/// Keeps a probe's result alive so the compiler cannot drop the work.
void keep(double v);

/// 16 hex digits.
std::string hex(std::uint64_t v);

/// Order-sensitive 64-bit digest over exact bit patterns.
class Digest {
 public:
  void u64(std::uint64_t v);
  void f32(float v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Every field of a point as exact bit patterns (the raw Welford fields
/// for each statistic), for field-for-field comparison and digests.
std::vector<std::uint64_t> fields(const beesim::core::SweepPoint& p);
std::vector<std::uint64_t> fields(const beesim::core::ResiliencePoint& p);
void digest_points(Digest& d,
                   const std::vector<beesim::core::SweepPoint>& points);
void digest_points(Digest& d,
                   const std::vector<beesim::core::ResiliencePoint>& points);

/// Digests recorded per (workload, seed) in reference_digests.tsv.
class References {
 public:
  explicit References(const std::string& path);
  /// True, with the digest in `out`, when one is recorded for the pair.
  bool find(const std::string& workload, std::uint64_t seed,
            std::uint64_t* out) const;

 private:
  struct Entry {
    std::string workload;
    std::uint64_t seed = 0;
    std::uint64_t digest = 0;
  };
  std::vector<Entry> entries_;
};

/// The timed window: starts on construction, closes after `seconds`.
struct Window {
  explicit Window(double window_seconds);
  bool open() const { return Clock::now() < deadline; }
  /// Time since the start in slices (0 at the start, kSlices at the
  /// deadline).
  double position(Clock::time_point t) const;
  int slice(Clock::time_point t) const;

  Clock::time_point start;
  Clock::time_point deadline;
  double seconds;
};

/// One issuing thread's record of a window: latency samples with the slice
/// each operation completed in (all of them up to kReservoir, a uniform
/// sample after that), and work units per slice.
struct OpLog {
  /// Allocates and touches the whole reservoir before the window opens.
  OpLog();
  void add(const Window& w, Clock::time_point t0, Clock::time_point t1,
           std::uint64_t units = 1);
  std::size_t held() const {
    return static_cast<std::size_t>(std::min<std::uint64_t>(ops, kReservoir));
  }

  std::vector<float> latency_ms;    // kReservoir slots, held() in use
  std::vector<std::uint8_t> slice;  // slice of each held sample
  std::uint64_t ops = 0;            // operations logged
  std::array<double, kSlices> units{};  // work units done in each slice
  Clock::time_point last_end{};
};

/// Work units per second over a whole window (start to last completion).
double units_per_second(const std::vector<const OpLog*>& logs,
                        const Window& w);

/// One reported number: its value, the quartile spread of the samples
/// behind it as a share of their median, and how many samples there were.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  double spread = 0.0;
  std::uint64_t samples = 0;
  std::string basis;
};

double median(std::vector<double> v);
/// (q3 - q1) / median, with the quartiles Python's
/// statistics.quantiles(values, n=4) gives.
double quartile_spread(std::vector<double> v);
/// Percentile of a sorted sample, interpolated as util::percentile does.
double sorted_percentile(const std::vector<double>& sorted, double q);

/// setup_s: the median over this process's setup and the --setup-only
/// processes' ones, each from its process's start to its first timed
/// operation.
Metric setup_metric(const Options& o, double own_seconds);
/// Median over slices of work units per second.
Metric throughput_metric(const std::vector<const OpLog*>& logs,
                         const Window& w, const std::string& basis);
/// latency_p50_ms and latency_p90_ms: the median over slices of each
/// slice's percentile, with every held sample weighted by the operations
/// it stands for. Like throughput, a burst of CPU steal from other
/// virtual machines that hits fewer than half the slices cannot move
/// them. p90 rather than p99: on a shared 4-vCPU box the p99 of a 10 s
/// run moved by more than 2x between runs, with neighbours' bursts rather
/// than the program setting it.
std::vector<Metric> latency_metrics(const std::vector<const OpLog*>& logs,
                                    const std::string& basis);
/// Read as the timed window closes, before the results are processed.
Metric peak_rss_metric();

/// A probe loop: calls `body`, which does `units` units of work, for at
/// least `min_seconds` and `min_reps` calls. The value is the median over
/// calls of seconds per unit, times `scale`.
Metric probe(const std::string& name, const std::string& unit, double scale,
             double units, const std::function<void()>& body,
             double min_seconds = 0.15, int min_reps = 5);
/// A seconds-per-unit probe (scale 1) turned into units per second.
Metric as_rate(Metric m, const std::string& unit);

/// Spans of the traced run. Each lane belongs to one issuing thread, so
/// recording takes no lock. An operation is a root span with sequential
/// leaf children; the root's self time is its duration minus theirs.
class Tracer {
 public:
  struct Child {
    int name;
    Clock::time_point t0;
    Clock::time_point t1;
  };

  Tracer(std::vector<std::string> names, unsigned lanes);

  void record(unsigned lane, std::uint64_t op, int root, Clock::time_point t0,
              Clock::time_point t1, std::initializer_list<Child> children);

  /// Durations in microseconds of every span named `name`, all lanes.
  std::vector<double> durations_us(int name) const;
  /// Summed self time in microseconds of every span named `name`.
  double self_us(int name) const;
  /// Writes the stored spans as a Chrome trace-event file.
  bool write_chrome_trace(const std::string& path) const;
  /// Per-span-name table: count, total and self milliseconds, self share
  /// of the root spans' time, p50 and p99.
  std::string self_time_table() const;

 private:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  struct Span {
    int name;
    std::uint32_t parent;  // index of the root span in its lane
    std::uint64_t op;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct Lane {
    std::vector<Span> spans;                 // capped, for the trace file
    std::vector<std::vector<float>> dur_us;  // every span, by name
    std::vector<double> self_us;             // every span, by name
    std::vector<char> is_root;               // by name
  };
  std::int64_t ns(Clock::time_point t) const;

  std::vector<std::string> names_;
  std::vector<Lane> lanes_;
  Clock::time_point origin_;
};

/// What a workload run returns to main.
struct Result {
  /// From process start to the first timed operation.
  double setup_seconds = 0.0;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per output check: "ok", "FAIL" or "n/a", then what it checks.
  std::vector<std::string> checks;
  /// Extra run-record entries.
  std::vector<std::pair<std::string, std::string>> record;
  std::string self_time;  // traced run only
};

void check(Result& r, bool ok, const std::string& what);
void add(Result& r, const std::string& name, const std::string& unit,
         double value, std::uint64_t samples, const std::string& basis);

// A traced run has two halves. The span half runs with obs off and
// records spans (two clock reads per call) and the task-pool totals, so
// those describe the program at full speed. The obs half turns obs on for
// its counters only: obs makes every fleet cycle bump shared atomics.

/// util.pool.tasks, .steals and .parks per operation since `before`.
void add_pool_counts(Result& r, const beesim::util::TaskPool::Stats& before,
                     double ops);

/// Brackets the obs half: resets and enables obs on construction;
/// finish() disables it and adds the obs counters per operation and
/// trace.overhead_frac.
class ObsWindow {
 public:
  ObsWindow();
  void finish(Result& r, double ops, double span_units_per_s,
              double obs_units_per_s);
};

/// Chrome trace-event file of a traced run.
std::string trace_path(const Options& o);

/// A fleet campaign the core probes replay.
struct CoreCase {
  beesim::core::FleetParams params;
  std::vector<int> counts;
  std::uint64_t seed = 0;
  int cycles = 1;
};
struct ResilienceCase {
  CoreCase base;
  beesim::fault::FaultPlan plan;
};
struct CoreInputs {
  std::vector<CoreCase> lossy;
  std::vector<ResilienceCase> resilient;
};

/// fleet_campaign's campaign for a workload seed.
CoreInputs fleet_campaign_inputs(std::uint64_t workload_seed);
/// A sample of a serve workload's requests as fleet campaigns.
CoreInputs serve_core_inputs(std::uint64_t workload_seed, bool hot);

/// The per-layer probes, run after the traced window. Each takes the
/// workload's own inputs; workloads without inputs for a layer pass the
/// owning workload's inputs for the same seed.
void probe_core(const CoreInputs& in, std::uint64_t workload_seed,
                Result& r);
void probe_serve(const Options& o, bool hot, Result& r);
/// serve.submit_us_p50 and serve.wait_us_* for workloads that run no
/// service: one tenant against a prefilled serve_hot service.
void probe_serve_latency(const Options& o, Result& r);
/// dsp/ml probes on the seed's first clip; `mel_and_forward` adds
/// dsp.mel_image_ms and ml.cnn_forward_ms, which queen_detect takes from
/// its spans instead.
void probe_queen(const Options& o, bool mel_and_forward, Result& r);

Result run_fleet_campaign(const Options& o, const References& refs);
Result run_serve(const Options& o, bool hot);
Result run_queen_detect(const Options& o, const References& refs);

/// The digests reference_digests.tsv records per seed.
std::uint64_t fleet_campaign_digest(std::uint64_t workload_seed);
std::uint64_t queen_detect_digest(std::uint64_t workload_seed);

}  // namespace perfbench
