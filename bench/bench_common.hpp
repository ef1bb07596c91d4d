#pragma once

// Shared scaffolding for the reproduction benches: banner printing,
// paper-vs-measured summary lines, key=value CLI parsing, and the
// `--metrics-out` observability hook.

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/catalog.hpp"
#include "obs/report.hpp"
#include "util/config.hpp"

namespace beesim::bench {

inline void banner(const char* id, const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("  (Hadjur, Lefevre, Ammar — PAISE 2023; beesim reproduction)\n");
  std::printf("================================================================\n");
}

/// One "paper says X, we measured Y" line for the experiment log.
inline void check_line(const char* what, double paper, double measured,
                       const char* unit) {
  const double rel = paper != 0.0 ? (measured - paper) / paper * 100.0 : 0.0;
  std::printf("  %-58s paper %10.1f %-7s measured %10.1f %-7s (%+.1f%%)\n",
              what, paper, unit, measured, unit, rel);
}

inline void check_line_int(const char* what, long paper, long measured) {
  std::printf("  %-58s paper %10ld         measured %10ld\n", what, paper,
              measured);
}

/// Rejects a bench invocation: one `error: ...` line, exit status 2.
[[noreturn]] inline void fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

/// Parses key=value args; exits 2 with an `error: ...` line on a
/// malformed argument (a token without `=`, a `--metrics-out` with no
/// path) and on unknown keys, so typos in sweep parameters never
/// silently run the default experiment.
///
/// `--metrics-out <path>`, `--metrics-out=<path>` or `metrics_out=<path>`
/// turns the obs layer on for the whole run and dumps the metrics
/// registry to `path` when the bench exits (JSON, or CSV when the path
/// ends in .csv) — see docs/OBSERVABILITY.md. Without the flag
/// instrumentation stays disabled and the run is bit-identical to an
/// uninstrumented build.
class Args {
 public:
  Args(int argc, char** argv) {
    constexpr std::string_view kJoined = "--metrics-out=";
    std::vector<const char*> rest;
    rest.push_back(argc > 0 ? argv[0] : "bench");
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg(argv[i]);
      if (arg == "--metrics-out") {
        if (i + 1 == argc) fail("--metrics-out needs a path");
        metrics_out_ = argv[++i];
        continue;
      }
      if (arg.starts_with(kJoined)) {
        metrics_out_ = std::string(arg.substr(kJoined.size()));
        continue;
      }
      rest.push_back(argv[i]);
    }
    try {
      config_ = util::Config(static_cast<int>(rest.size()), rest.data());
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
    if (metrics_out_.empty())
      metrics_out_ = config_.get_string("metrics_out", "");
    if (!metrics_out_.empty()) {
      // Pre-register the full catalog so the report always carries every
      // metric (zeros included) — reports stay diffable across benches.
      obs::register_catalog(obs::registry());
      obs::set_enabled(true);
    }
  }

  util::Config& config() { return config_; }
  const std::string& metrics_out() const { return metrics_out_; }

  ~Args() {
    const auto unused = config_.unused_keys();
    if (!unused.empty()) {
      std::fprintf(stderr, "error: unknown parameter(s):");
      for (const auto& key : unused) std::fprintf(stderr, " %s", key.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    if (!metrics_out_.empty()) {
      if (!obs::write_file(obs::registry(), metrics_out_))
        fail("cannot write metrics to " + metrics_out_);
      std::printf("\nMetrics written to %s\n", metrics_out_.c_str());
    }
  }

 private:
  util::Config config_;
  std::string metrics_out_;
};

/// The shared `threads=` knob: worker budget for util::parallel_for
/// regions (0 = util::default_thread_count(), the cached
/// hardware_concurrency probe). Benches parse it through this one helper
/// so the spelling and default never drift between binaries — results
/// are bit-identical for any value, the knob only moves wall-clock time.
inline unsigned threads_arg(Args& args) {
  return static_cast<unsigned>(args.config().get_int("threads", 0));
}

}  // namespace beesim::bench
