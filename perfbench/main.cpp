// beebench — the repo benchmark's program. perfbench/run.py builds and runs
// it; perfbench/README.md describes the workloads, metrics and checks.
//
//   beebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--commit <id>] [--reference <tsv>] [--out-dir <dir>]
//            [--wrong-reference] [--setup-only] [--prior-setups <s,s,...>]
//   beebench --record-digests <first-seed> <last-seed>
//
// Prints a human-readable report, writes a run record to --out-dir, and
// ends standard output with one JSON line: correct, attempted, failed and
// the metrics BENCHMARK.json declares (end-to-end untraced, per-layer
// traced). With --setup-only it runs the workload's setup, prints
// {"setup_s": <seconds>} and exits.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>

#include "common.hpp"
#include "dsp/dispatch.hpp"

namespace {

using namespace perfbench;

// The metric names BENCHMARK.json declares, in its order.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "throughput_per_s", "latency_p50_ms", "latency_p90_ms",
    "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "core.cycle_ns",
    "core.loss_draw_ns",
    "core.allocate_ns",
    "core.cycle_rest_ns",
    "core.surviving_repeat_frac",
    "core.sweep_cycles_per_s",
    "core.advance_cycles_per_s",
    "core.resilience_cycles_per_s",
    "dsp.welford5_ns_per_row",
    "util.pool.speedup",
    "util.pool.tasks",
    "util.pool.steals",
    "util.pool.parks",
    "serve.submit_us_p50",
    "serve.wait_us_p50",
    "serve.wait_us_p99",
    "serve.scenario_group_ns",
    "serve.cache_lookup_ns",
    "serve.cache_insert_ns",
    "serve.cache_hit_ratio",
    "serve.cache.evictions",
    "serve.coalesced_frac",
    "serve.batch_width_mean",
    "serve.points_computed",
    "dsp.mel_image_ms",
    "dsp.stft_ms",
    "dsp.stft.frames",
    "ml.cnn_forward_ms",
    "ml.sgemm_gflops",
    "ml.conv.gemm_flops",
    "trace.overhead_frac"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "beebench: %s\n"
               "usage: beebench --workload "
               "<fleet_campaign|serve_hot|serve_cold|queen_detect> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] [--reference "
               "<tsv>] [--out-dir <dir>] [--wrong-reference] [--setup-only] "
               "[--prior-setups <s,s,...>]\n"
               "       beebench --record-digests <first-seed> <last-seed>\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_seed(const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
    usage(std::string("bad seed '") + s + "'");
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = parse_seed(value());
    } else if (arg == "--seconds") {
      const char* v = value();
      char* end = nullptr;
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' ||
          !(o.seconds >= 1.0 && o.seconds <= 120.0))
        usage("--seconds must be between 1 and 120");
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--commit") {
      o.commit = value();
    } else if (arg == "--reference") {
      o.reference = value();
    } else if (arg == "--out-dir") {
      o.out_dir = value();
    } else if (arg == "--wrong-reference") {
      o.wrong_reference = true;
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else if (arg == "--prior-setups") {
      const char* v = value();
      for (const char* at = v; *at != '\0';) {
        char* end = nullptr;
        const double s = std::strtod(at, &end);
        if (end == at || !(s > 0.0) || !std::isfinite(s) ||
            (*end != ',' && *end != '\0'))
          usage(std::string("bad --prior-setups '") + v + "'");
        o.prior_setups.push_back(s);
        at = *end == ',' ? end + 1 : end;
      }
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(ch));
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Orders `metrics` as `names` declares; false (with the reason) when one
/// is missing, repeated or not declared.
bool select(std::vector<Metric>& metrics,
            const std::vector<std::string>& names, std::string* problem) {
  std::vector<Metric> out;
  for (const std::string& name : names) {
    const auto matches = [&](const Metric& m) { return m.name == name; };
    const auto n = std::count_if(metrics.begin(), metrics.end(), matches);
    if (n != 1) {
      *problem = name + " reported " + std::to_string(n) + " times";
      return false;
    }
    out.push_back(*std::find_if(metrics.begin(), metrics.end(), matches));
  }
  if (out.size() != metrics.size()) {
    *problem = "a metric BENCHMARK.json does not declare was reported";
    return false;
  }
  metrics = std::move(out);
  return true;
}

void write_record(const std::string& path,
                  const std::vector<std::pair<std::string, std::string>>& record,
                  const Result& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fputs("{\n  \"record\": {", f);
  for (std::size_t i = 0; i < record.size(); ++i)
    std::fprintf(f, "%s\n    %s: %s", i ? "," : "",
                 json_string(record[i].first).c_str(),
                 json_string(record[i].second).c_str());
  std::fputs("\n  },\n  \"metrics\": [", f);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::fprintf(f,
                 "%s\n    {\"name\": %s, \"unit\": %s, \"value\": %s, "
                 "\"spread\": %s, \"samples\": %llu, \"basis\": %s}",
                 i ? "," : "", json_string(m.name).c_str(),
                 json_string(m.unit).c_str(), number(m.value).c_str(),
                 number(m.spread).c_str(),
                 static_cast<unsigned long long>(m.samples),
                 json_string(m.basis).c_str());
  }
  std::fputs("\n  ],\n  \"checks\": [", f);
  for (std::size_t i = 0; i < r.checks.size(); ++i)
    std::fprintf(f, "%s\n    %s", i ? "," : "",
                 json_string(r.checks[i]).c_str());
  std::fprintf(f, "\n  ],\n  \"attempted\": %llu,\n  \"failed\": %llu\n}\n",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed));
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--record-digests") == 0) {
    if (argc != 4) usage("--record-digests takes <first-seed> <last-seed>");
    const std::uint64_t first = parse_seed(argv[2]);
    const std::uint64_t last = parse_seed(argv[3]);
    std::printf("# workload\tseed\tdigest (beebench --record-digests %s %s)\n",
                argv[2], argv[3]);
    for (std::uint64_t seed = first; seed <= last; ++seed) {
      const auto s = static_cast<unsigned long long>(seed);
      std::printf("fleet_campaign\t%llu\t%s\n", s,
                  hex(fleet_campaign_digest(seed)).c_str());
      std::printf("queen_detect\t%llu\t%s\n", s,
                  hex(queen_detect_digest(seed)).c_str());
      std::fflush(stdout);
    }
    return 0;
  }

  const Options o = parse(argc, argv);
  const bool serve_workload =
      o.workload == "serve_hot" || o.workload == "serve_cold";
  if (!serve_workload && o.workload != "fleet_campaign" &&
      o.workload != "queen_detect")
    usage("unknown workload " + o.workload);
  std::error_code ignored;
  std::filesystem::create_directories(o.out_dir, ignored);
  const References refs(o.reference);

  Result r;
  if (o.workload == "fleet_campaign")
    r = run_fleet_campaign(o, refs);
  else if (serve_workload)
    r = run_serve(o, o.workload == "serve_hot");
  else
    r = run_queen_detect(o, refs);
  if (o.setup_only) {
    std::printf("{\"setup_s\": %s}\n", number(r.setup_seconds).c_str());
    return 0;
  }

  if (o.trace) {
    probe_core(serve_workload
                   ? serve_core_inputs(o.seed, o.workload == "serve_hot")
                   : fleet_campaign_inputs(o.seed),
               o.seed, r);
    probe_serve(o, o.workload != "serve_cold", r);
    if (!serve_workload) probe_serve_latency(o, r);
    probe_queen(o, o.workload != "queen_detect", r);
  } else {
    r.metrics.push_back(setup_metric(o, r.setup_seconds));
  }

  std::string problem;
  if (!select(r.metrics, o.trace ? kPerLayer : kEndToEnd, &problem)) {
    std::fprintf(stderr, "beebench: %s\n", problem.c_str());
    return 3;
  }
  for (const Metric& m : r.metrics)
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "beebench: %s is not finite\n", m.name.c_str());
      return 3;
    }
  if (r.attempted == 0) {
    // Nothing completed: report it as one failed operation.
    r.attempted = 1;
    r.failed = 1;
  }

  std::string setups;  // one per process, this one last
  for (const double s : o.prior_setups) setups += number(s) + ",";
  setups += number(r.setup_seconds);
  std::vector<std::pair<std::string, std::string>> record = {
      {"workload", o.workload},
      {"seed", std::to_string(o.seed)},
      {"seconds", number(o.seconds)},
      {"run", o.trace ? "traced" : "untraced"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"isa", beesim::dsp::isa_name(beesim::dsp::active_isa())},
      {"compiler", compiler()},
      {"build_type", BEEBENCH_BUILD_TYPE},
      {"commit", o.commit},
      {"setup_seconds", setups},
      {"slices", std::to_string(kSlices)},
      {"latency_reservoir_per_thread", std::to_string(kReservoir)}};
  record.insert(record.end(), r.record.begin(), r.record.end());

  std::printf("\nbeebench %s: seed %llu, %g s, %s\n\nrun record\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? "traced" : "untraced");
  for (const auto& [key, value] : record)
    std::printf("  %-36s %s\n", key.c_str(), value.c_str());
  std::printf("\n  %-28s %-9s %14s %9s %9s  %s\n", "metric", "unit", "value",
              "spread", "samples", "basis");
  for (const Metric& m : r.metrics)
    std::printf("  %-28s %-9s %14.6g %8.2f%% %9llu  %s\n", m.name.c_str(),
                m.unit.c_str(), m.value, 100.0 * m.spread,
                static_cast<unsigned long long>(m.samples), m.basis.c_str());
  if (!o.trace)
    std::printf("  %-28s %-9s %14.6g %9s %9llu  %s\n", "failed_frac",
                "fraction",
                static_cast<double>(r.failed) /
                    static_cast<double>(r.attempted),
                "", static_cast<unsigned long long>(r.attempted),
                "failed over attempted operations (the result's failed and "
                "attempted)");
  if (!r.self_time.empty())
    std::printf("\nself time by span, traced window (%s)\n%s",
                trace_path(o).c_str(), r.self_time.c_str());
  std::printf("\nchecks\n");
  for (const std::string& c : r.checks) std::printf("  %s\n", c.c_str());
  std::printf("  failed %llu of %llu attempted operations\n",
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  const std::string record_path =
      o.out_dir + "/" + o.workload + ".seed" + std::to_string(o.seed) +
      (o.trace ? ".traced" : ".untraced") + ".record.json";
  write_record(record_path, record, r);
  std::printf("  run record: %s\n\n", record_path.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (r.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    line += (i ? ", " : "") + json_string(r.metrics[i].name) +
            ": {\"value\": " + number(r.metrics[i].value) +
            ", \"unit\": " + json_string(r.metrics[i].unit) + "}";
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
