#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/catalog.hpp"

namespace perfbench {

const Clock::time_point kProcessStart = Clock::now();

namespace {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::uint64_t word(std::int64_t v) { return static_cast<std::uint64_t>(v); }

void push_stats(std::vector<std::uint64_t>& out,
                const beesim::util::RunningStats& s) {
  const auto r = s.raw();
  out.insert(out.end(), {r.n, bits(r.mean), bits(r.m2), bits(r.sum),
                         bits(r.min), bits(r.max)});
}

template <typename Point>
void digest_all(Digest& d, const std::vector<Point>& points) {
  for (const Point& p : points)
    for (std::uint64_t w : fields(p)) d.u64(w);
}

/// Spans kept per lane for the trace file; every span still counts in
/// the aggregates once a lane is full.
constexpr std::size_t kStoredSpansPerLane = 16384;

volatile double g_sink = 0.0;

}  // namespace

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag, std::uint64_t a,
                     std::uint64_t b) {
  return mix(mix(mix(mix(seed) ^ tag) ^ a) ^ b);
}

void keep(double v) { g_sink = g_sink + v; }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Digest::u64(std::uint64_t v) { h_ = mix(h_ ^ v); }

void Digest::f32(float v) {
  std::uint32_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  u64(b);
}

std::vector<std::uint64_t> fields(const beesim::core::SweepPoint& p) {
  std::vector<std::uint64_t> out = {word(p.initial_clients), word(p.cycles),
                                    word(p.servers_used)};
  push_stats(out, p.lost_clients);
  push_stats(out, p.active_slots);
  push_stats(out, p.edge_energy);
  push_stats(out, p.cloud_energy);
  push_stats(out, p.total_energy);
  return out;
}

std::vector<std::uint64_t> fields(const beesim::core::ResiliencePoint& p) {
  std::vector<std::uint64_t> out = {word(p.initial_clients),
                                    word(p.cycles),
                                    word(p.servers_used),
                                    word(p.degraded_cycles),
                                    word(p.edge_fallback_cycles),
                                    word(p.fallback_client_cycles),
                                    word(p.shed_client_cycles),
                                    word(p.browned_client_cycles),
                                    word(p.sensor_mute_client_cycles),
                                    bits(p.bytes_generated),
                                    bits(p.bytes_served),
                                    bits(p.bytes_recovered),
                                    bits(p.bytes_dropped),
                                    bits(p.bytes_pending),
                                    bits(p.bytes_lost)};
  push_stats(out, p.lost_clients);
  push_stats(out, p.edge_energy);
  push_stats(out, p.cloud_energy);
  push_stats(out, p.total_energy);
  return out;
}

void digest_points(Digest& d,
                   const std::vector<beesim::core::SweepPoint>& points) {
  digest_all(d, points);
}

void digest_points(Digest& d,
                   const std::vector<beesim::core::ResiliencePoint>& points) {
  digest_all(d, points);
}

References::References(const std::string& path) {
  if (path.empty()) return;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream columns(line);
    Entry e;
    std::string digest;
    if (columns >> e.workload >> e.seed >> digest) {
      e.digest = std::stoull(digest, nullptr, 16);
      entries_.push_back(e);
    }
  }
}

bool References::find(const std::string& workload, std::uint64_t seed,
                      std::uint64_t* out) const {
  for (const Entry& e : entries_)
    if (e.workload == workload && e.seed == seed) {
      *out = e.digest;
      return true;
    }
  return false;
}

Window::Window(double window_seconds)
    : start(Clock::now()),
      deadline(start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(window_seconds))),
      seconds(window_seconds) {}

double Window::position(Clock::time_point t) const {
  return std::max(0.0, seconds_between(start, t) / seconds * kSlices);
}

int Window::slice(Clock::time_point t) const {
  return std::min(static_cast<int>(position(t)), kSlices - 1);
}

OpLog::OpLog() : latency_ms(kReservoir), slice(kReservoir) {}

void OpLog::add(const Window& w, Clock::time_point t0, Clock::time_point t1,
                std::uint64_t n) {
  // Reservoir sampling (algorithm R): once full, operation `ops` replaces
  // a random held sample with probability kReservoir / (ops + 1).
  const std::uint64_t at = ops < kReservoir ? ops : mix(ops) % (ops + 1);
  if (at < kReservoir) {
    latency_ms[at] = static_cast<float>(seconds_between(t0, t1) * 1e3);
    slice[at] = static_cast<std::uint8_t>(w.slice(t1));
  }
  ++ops;
  // The units are spread over the slices the operation overlapped, so a
  // slice's rate is not rounded to whole operations; time past the
  // deadline counts to the last slice.
  const double f0 = w.position(t0);
  const double f1 = w.position(t1);
  const double work = static_cast<double>(n);
  if (f1 <= f0) {
    units[static_cast<std::size_t>(w.slice(t1))] += work;
  } else {
    for (int s = static_cast<int>(f0); s <= static_cast<int>(f1); ++s) {
      const double overlap = std::min(f1, s + 1.0) - std::max(f0, 1.0 * s);
      units[static_cast<std::size_t>(std::min(s, kSlices - 1))] +=
          work * overlap / (f1 - f0);
    }
  }
  last_end = t1;
}

double units_per_second(const std::vector<const OpLog*>& logs,
                        const Window& w) {
  double units = 0.0;
  Clock::time_point end = w.start;
  for (const OpLog* log : logs) {
    for (double u : log->units) units += u;
    end = std::max(end, log->last_end);
  }
  const double elapsed = seconds_between(w.start, end);
  return elapsed > 0.0 ? units / elapsed : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quartile_spread(std::vector<double> v) {
  if (v.size() < 2) return 0.0;
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  const auto quartile = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  const double med = median(v);
  return med != 0.0 ? (quartile(3) - quartile(1)) / std::fabs(med) : 0.0;
}

double sorted_percentile(const std::vector<double>& s, double q) {
  if (s.empty()) return 0.0;
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (pos - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

Metric setup_metric(const Options& o, double own_seconds) {
  std::vector<double> setups = o.prior_setups;
  setups.push_back(own_seconds);
  return {"setup_s",
          "s",
          median(setups),
          quartile_spread(setups),
          setups.size(),
          "median over fresh processes, each from process start to its "
          "first timed operation"};
}

Metric throughput_metric(const std::vector<const OpLog*>& logs,
                         const Window& w, const std::string& basis) {
  std::array<double, kSlices> units{};
  Clock::time_point end = w.start;
  for (const OpLog* log : logs) {
    for (std::size_t s = 0; s < units.size(); ++s) units[s] += log->units[s];
    end = std::max(end, log->last_end);
  }
  // Operations still running at the deadline finish in the last slice,
  // which therefore lasts until the last completion.
  const double slice_s = w.seconds / kSlices;
  const double last = std::max(
      slice_s, seconds_between(w.start, end) - (kSlices - 1) * slice_s);
  std::vector<double> rates;
  for (std::size_t s = 0; s < units.size(); ++s)
    rates.push_back(units[s] / (s + 1 < units.size() ? slice_s : last));
  return {"throughput_per_s", "op/s", median(rates), quartile_spread(rates),
          kSlices, basis};
}

namespace {

/// A held latency sample and the number of operations it stands for.
struct Weighted {
  float ms;
  double weight;
};

/// The smallest sample whose cumulative weight reaches q of the total;
/// `v` must be sorted by value.
double weighted_percentile(const std::vector<Weighted>& v, double q) {
  double total = 0.0;
  for (const Weighted& s : v) total += s.weight;
  double cumulative = 0.0;
  for (const Weighted& s : v) {
    cumulative += s.weight;
    if (cumulative >= q * total) return s.ms;
  }
  return v.empty() ? 0.0 : v.back().ms;
}

}  // namespace

std::vector<Metric> latency_metrics(const std::vector<const OpLog*>& logs,
                                    const std::string& basis) {
  std::array<std::vector<Weighted>, kSlices> per_slice;
  std::uint64_t ops = 0;
  for (const OpLog* log : logs) {
    const std::size_t held = log->held();
    ops += log->ops;
    if (held == 0) continue;
    const double weight =
        static_cast<double>(log->ops) / static_cast<double>(held);
    for (std::size_t i = 0; i < held; ++i)
      per_slice[log->slice[i]].push_back({log->latency_ms[i], weight});
  }
  for (auto& s : per_slice)
    std::sort(s.begin(), s.end(), [](const Weighted& a, const Weighted& b) {
      return a.ms < b.ms;
    });
  std::vector<Metric> out;
  const std::pair<const char*, double> wanted[] = {{"latency_p50_ms", 0.50},
                                                   {"latency_p90_ms", 0.90}};
  for (const auto& [name, q] : wanted) {
    std::vector<double> slice_values;
    for (const auto& s : per_slice)
      if (!s.empty()) slice_values.push_back(weighted_percentile(s, q));
    out.push_back({name, "ms", median(slice_values),
                   quartile_spread(slice_values), ops, basis});
  }
  return out;
}

Metric peak_rss_metric() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {"peak_rss_mb", "MB", static_cast<double>(usage.ru_maxrss) / 1024.0,
          0.0, 1, "getrusage ru_maxrss of this process as the window closes"};
}

Metric probe(const std::string& name, const std::string& unit, double scale,
             double units, const std::function<void()>& body,
             double min_seconds, int min_reps) {
  std::vector<double> per_unit;
  const auto begin = Clock::now();
  while (static_cast<int>(per_unit.size()) < min_reps ||
         seconds_between(begin, Clock::now()) < min_seconds) {
    const auto t0 = Clock::now();
    body();
    per_unit.push_back(seconds_between(t0, Clock::now()) / units * scale);
  }
  return {name, unit, median(per_unit), quartile_spread(per_unit),
          per_unit.size(), "probe calls"};
}

Metric as_rate(Metric m, const std::string& unit) {
  m.value = m.value > 0.0 ? 1.0 / m.value : 0.0;
  m.unit = unit;
  return m;
}

Tracer::Tracer(std::vector<std::string> names, unsigned lanes)
    : names_(std::move(names)), lanes_(lanes), origin_(Clock::now()) {
  for (Lane& lane : lanes_) {
    lane.spans.reserve(kStoredSpansPerLane);
    lane.dur_us.resize(names_.size());
    lane.self_us.assign(names_.size(), 0.0);
    lane.is_root.assign(names_.size(), 0);
  }
}

std::int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

void Tracer::record(unsigned lane_index, std::uint64_t op, int root,
                    Clock::time_point t0, Clock::time_point t1,
                    std::initializer_list<Child> children) {
  Lane& lane = lanes_[lane_index];
  const bool store =
      lane.spans.size() + 1 + children.size() <= kStoredSpansPerLane;
  const auto root_index = static_cast<std::uint32_t>(lane.spans.size());
  if (store) lane.spans.push_back({root, kNoParent, op, ns(t0), ns(t1)});
  double child_us = 0.0;
  for (const Child& c : children) {
    const double us = seconds_between(c.t0, c.t1) * 1e6;
    const auto n = static_cast<std::size_t>(c.name);
    child_us += us;
    lane.dur_us[n].push_back(static_cast<float>(us));
    lane.self_us[n] += us;
    if (store)
      lane.spans.push_back({c.name, root_index, op, ns(c.t0), ns(c.t1)});
  }
  const double root_us = seconds_between(t0, t1) * 1e6;
  const auto r = static_cast<std::size_t>(root);
  lane.dur_us[r].push_back(static_cast<float>(root_us));
  lane.self_us[r] += root_us - child_us;
  lane.is_root[r] = 1;
}

std::vector<double> Tracer::durations_us(int name) const {
  std::vector<double> out;
  for (const Lane& lane : lanes_)
    for (float v : lane.dur_us[static_cast<std::size_t>(name)])
      out.push_back(v);
  return out;
}

double Tracer::self_us(int name) const {
  double total = 0.0;
  for (const Lane& lane : lanes_)
    total += lane.self_us[static_cast<std::size_t>(name)];
  return total;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t l = 0; l < lanes_.size(); ++l)
    for (const Span& s : lanes_[l].spans) {
      const std::string& name = names_[static_cast<std::size_t>(s.name)];
      const std::string layer = name.substr(0, name.find('.'));
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                   "\"args\":{\"op\":%llu,\"parent\":",
                   first ? "" : ",", name.c_str(), layer.c_str(),
                   static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, l,
                   static_cast<unsigned long long>(s.op));
      if (s.parent == kNoParent)
        std::fputs("null}}", f);
      else
        std::fprintf(f, "\"%s\"}}",
                     names_[static_cast<std::size_t>(
                                lanes_[l].spans[s.parent].name)]
                         .c_str());
      first = false;
    }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::string Tracer::self_time_table() const {
  double root_us = 0.0;
  for (std::size_t n = 0; n < names_.size(); ++n) {
    bool root = false;
    for (const Lane& lane : lanes_) root = root || lane.is_root[n] != 0;
    if (!root) continue;
    for (double v : durations_us(static_cast<int>(n))) root_us += v;
  }
  std::string out =
      "  span                       spans    total_ms     self_ms  "
      "self_share     p50_us     p99_us\n";
  char line[256];
  for (std::size_t n = 0; n < names_.size(); ++n) {
    std::vector<double> d = durations_us(static_cast<int>(n));
    if (d.empty()) continue;
    double total = 0.0;
    for (double v : d) total += v;
    std::sort(d.begin(), d.end());
    const double self = self_us(static_cast<int>(n));
    std::snprintf(line, sizeof line,
                  "  %-24s %8zu %11.3f %11.3f %10.1f%% %10.2f %10.2f\n",
                  names_[n].c_str(), d.size(), total / 1e3, self / 1e3,
                  root_us > 0.0 ? 100.0 * self / root_us : 0.0,
                  sorted_percentile(d, 0.50), sorted_percentile(d, 0.99));
    out += line;
  }
  return out;
}

void check(Result& r, bool ok, const std::string& what) {
  r.checks.push_back((ok ? "ok    " : "FAIL  ") + what);
}

void add(Result& r, const std::string& name, const std::string& unit,
         double value, std::uint64_t samples, const std::string& basis) {
  r.metrics.push_back({name, unit, value, 0.0, samples, basis});
}

namespace {

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

}  // namespace

void add_pool_counts(Result& r, const beesim::util::TaskPool::Stats& before,
                     double ops) {
  const auto after = beesim::util::TaskPool::instance().stats();
  const auto n = static_cast<std::uint64_t>(ops);
  const std::string per_op =
      "TaskPool::stats() over the span half (obs off), per operation";
  add(r, "util.pool.tasks", "count/op",
      ratio(static_cast<double>(after.tasks - before.tasks), ops), n, per_op);
  add(r, "util.pool.steals", "count/op",
      ratio(static_cast<double>(after.steals - before.steals), ops), n,
      per_op);
  add(r, "util.pool.parks", "count/op",
      ratio(static_cast<double>(after.parks - before.parks), ops), n, per_op);
}

ObsWindow::ObsWindow() {
  beesim::obs::registry().reset_values();
  beesim::obs::set_enabled(true);
}

void ObsWindow::finish(Result& r, double ops, double span_units_per_s,
                       double obs_units_per_s) {
  beesim::obs::set_enabled(false);
  namespace m = beesim::obs::metric;
  auto& reg = beesim::obs::registry();
  const auto count = [&](const char* name) {
    return static_cast<double>(reg.counter(name).value());
  };
  const auto n = static_cast<std::uint64_t>(ops);
  const std::string per_op = "obs half, per operation";
  const double hits = count(m::kServeCacheHits);
  const double misses = count(m::kServeCacheMisses);
  add(r, "serve.cache_hit_ratio", "ratio", ratio(hits, hits + misses), n,
      "obs half, hits / (hits + misses)");
  add(r, "serve.cache.evictions", "count/op",
      ratio(count(m::kServeCacheEvictions), ops), n, per_op);
  add(r, "serve.coalesced_frac", "frac",
      ratio(count(m::kServePointsCoalesced), count(m::kServePointsRequested)),
      n, "obs half, points coalesced / points requested");
  const auto& width =
      reg.histogram(m::kServeBatchWidth, beesim::obs::serve_batch_bounds());
  add(r, "serve.batch_width_mean", "req",
      ratio(width.sum(), static_cast<double>(width.count())), width.count(),
      "obs half, requests per dispatched batch");
  add(r, "serve.points_computed", "count/op",
      ratio(count(m::kServePointsComputed), ops), n, per_op);
  add(r, "dsp.stft.frames", "count/op", ratio(count(m::kDspStftFrames), ops),
      n, per_op);
  add(r, "ml.conv.gemm_flops", "count/op",
      ratio(count(m::kMlConvGemmFlops), ops), n, per_op);
  add(r, "trace.overhead_frac", "frac",
      ratio(span_units_per_s, obs_units_per_s) - 1.0, n,
      "span half over obs half work per second, minus one: the cost of "
      "turning obs on, spans being two clock reads per call");
}

std::string trace_path(const Options& o) {
  return o.out_dir + "/" + o.workload + ".seed" + std::to_string(o.seed) +
         ".trace.json";
}

}  // namespace perfbench
