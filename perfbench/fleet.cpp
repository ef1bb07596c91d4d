// fleet_campaign — the researchers' offline campaign — and the core-layer
// probes every traced run reports.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>

#include "common.hpp"
#include "core/allocator.hpp"
#include "core/fleet_columns.hpp"
#include "dsp/simd_kernels.hpp"

namespace perfbench {
namespace {

using namespace beesim;

/// Monte-Carlo depth of every campaign point. One pass (both sweeps over
/// 50 fleet sizes) then takes milliseconds on 4 cores, so a run holds
/// thousands of passes for the latency percentiles.
constexpr int kCampaignCycles = 1000;
/// Untimed passes per setup.
constexpr int kWarmupPasses = 16;

constexpr std::uint64_t kTagCampaign = 0x63616d70;  // "camp"
constexpr std::uint64_t kTagPlan = 0x706c616e;      // "plan"
constexpr std::uint64_t kTagSample = 0x73616d70;    // "samp"

/// Fig 8's fleet sizes 10..400 (step 10) plus scale_fleet's default log
/// ladder: 1000 .. 10^6 hives in 10 rungs.
std::vector<int> campaign_ladder() {
  std::vector<int> out = core::client_range(10, 400, 10);
  constexpr int kRungs = 10;
  for (int i = 0; i < kRungs; ++i)
    out.push_back(static_cast<int>(std::lround(
        1000.0 * std::pow(1000.0, static_cast<double>(i) / (kRungs - 1)))));
  out.back() = 1000000;
  return out;
}

core::FleetParams campaign_params() {
  core::FleetParams p =
      core::FleetParams::paper_default(core::ServiceModel::kCnn, 10);
  p.loss = core::LossConfig::all();
  return p;
}

/// resilience_sweep's kind=mix plan at outage rate 0.2 (mean window 3
/// cycles, severity 0.5): half the budget on cloud outages, a third on
/// link outages, the rest on battery derates.
fault::FaultPlan mix_plan(std::uint64_t seed, int cycles) {
  using fault::FaultKind;
  constexpr double kRate = 0.2;
  constexpr int kDuration = 3;
  fault::FaultPlan plan = fault::FaultPlan::random_outages(
      seed, cycles, kRate * 0.5, kDuration, FaultKind::kCloudOutage);
  const fault::FaultPlan links = fault::FaultPlan::random_outages(
      seed, cycles, kRate / 3.0, kDuration, FaultKind::kLinkOutage);
  for (const auto& w : links.windows()) plan.add(w);
  const fault::FaultPlan derates = fault::FaultPlan::random_outages(
      seed, cycles, kRate / 6.0, kDuration, FaultKind::kBatteryDerate, 0.5);
  for (const auto& w : derates.windows()) plan.add(w);
  return plan;
}

/// fleet_campaign's inputs and simulators for one workload seed.
struct Campaign {
  explicit Campaign(std::uint64_t workload_seed)
      : ladder(campaign_ladder()),
        seed(derive(workload_seed, kTagCampaign)),
        plan(mix_plan(derive(workload_seed, kTagPlan), kCampaignCycles)),
        sim(campaign_params()),
        fleet(campaign_params(), plan) {}

  std::uint64_t cycles_per_pass() const {
    return 2 * ladder.size() * static_cast<std::uint64_t>(kCampaignCycles);
  }

  std::vector<int> ladder;
  std::uint64_t seed;
  fault::FaultPlan plan;
  core::LargeScaleSimulator sim;
  core::ResilientFleet fleet;
};

/// One campaign pass: the lossy sweep, then the resilient sweep.
struct Pass {
  std::vector<core::SweepPoint> lossy;
  std::vector<core::ResiliencePoint> resilient;

  std::uint64_t digest() const {
    Digest d;
    digest_points(d, lossy);
    digest_points(d, resilient);
    return d.value();
  }
};

Pass run_pass(const Campaign& c, unsigned threads, std::uint64_t seed) {
  return {c.sim.sweep(c.ladder, seed, kCampaignCycles, threads),
          c.fleet.sweep(c.ladder, seed, kCampaignCycles, threads)};
}

enum SpanName { kPassSpan, kSweepSpan, kResilienceSpan };

struct WindowRun {
  // The log is built (and its reservoir touched) before the window opens.
  explicit WindowRun(double seconds) : window(seconds) {}

  OpLog log;
  Window window;
  std::uint64_t mismatched = 0;

  double units_per_s() const { return units_per_second({&log}, window); }
};

/// Passes back to back until the window closes. Each pass's digest is
/// taken after its stopwatch stops (microseconds against a pass of
/// milliseconds) and compared with `expected`.
WindowRun run_window(const Campaign& c, double seconds,
                     std::uint64_t expected, Tracer* tracer) {
  WindowRun run(seconds);
  for (std::uint64_t op = 0; run.window.open(); ++op) {
    Pass p;
    const auto t0 = Clock::now();
    p.lossy = c.sim.sweep(c.ladder, c.seed, kCampaignCycles, 0);
    const auto t1 = Clock::now();
    p.resilient = c.fleet.sweep(c.ladder, c.seed, kCampaignCycles, 0);
    const auto t2 = Clock::now();
    run.log.add(run.window, t0, t2, c.cycles_per_pass());
    if (tracer != nullptr)
      tracer->record(0, op, kPassSpan, t0, t2,
                     {{kSweepSpan, t0, t1}, {kResilienceSpan, t1, t2}});
    if (p.digest() != expected) ++run.mismatched;
  }
  return run;
}

}  // namespace

Result run_fleet_campaign(const Options& o, const References& refs) {
  Result r;
  Campaign c(o.seed);
  // The untimed passes; the first also starts the task pool. Several,
  // because the pool's idle workers take a while to spread over the cores.
  Pass reference;
  for (int pass = 0; pass < kWarmupPasses; ++pass)
    reference = run_pass(c, 0, c.seed);
  const std::uint64_t expected = reference.digest();
  r.setup_seconds = seconds_between(kProcessStart, Clock::now());
  if (o.setup_only) return r;
  // What every timed pass must reproduce.
  const std::uint64_t per_pass = o.wrong_reference ? ~expected : expected;

  std::uint64_t passes = 0, mismatched = 0;
  if (!o.trace) {
    const WindowRun run = run_window(c, o.seconds, per_pass, nullptr);
    r.metrics.push_back(peak_rss_metric());
    r.metrics.push_back(throughput_metric(
        {&run.log}, run.window,
        "fleet cycles per second, lossy and resilient; median of 10 slices"));
    for (Metric& m : latency_metrics(
             {&run.log}, "campaign passes: both sweeps over 50 fleet sizes"))
      r.metrics.push_back(m);
    passes = run.log.ops;
    mismatched = run.mismatched;
  } else {
    Tracer tracer(
        {"bench.campaign_pass", "core.sweep", "core.resilience_sweep"}, 1);
    const auto pool = util::TaskPool::instance().stats();
    const WindowRun spans = run_window(c, o.seconds / 2, per_pass, &tracer);
    add_pool_counts(
        r, pool, static_cast<double>(spans.log.ops * c.cycles_per_pass()));
    ObsWindow obs;
    const WindowRun counted = run_window(c, o.seconds / 2, per_pass, nullptr);
    obs.finish(r,
               static_cast<double>(counted.log.ops * c.cycles_per_pass()),
               spans.units_per_s(), counted.units_per_s());
    if (!tracer.write_chrome_trace(trace_path(o)))
      r.checks.push_back("n/a   could not write " + trace_path(o));
    r.self_time = tracer.self_time_table();
    passes = spans.log.ops + counted.log.ops;
    mismatched = spans.mismatched + counted.mismatched;
  }

  // Output checks, outside the timed window.
  bool reference_ok = true;
  const std::uint64_t oracle_seed = c.seed + (o.wrong_reference ? 1 : 0);
  std::uint64_t recorded = 0;
  if (refs.find(o.workload, o.seed, &recorded)) {
    if (o.wrong_reference) recorded = ~recorded;
    const bool ok = recorded == expected;
    check(r, ok,
          "pass digest " + hex(expected) +
              " equals the digest recorded for seed " + std::to_string(o.seed));
    reference_ok = reference_ok && ok;
  } else {
    r.checks.push_back("n/a   no digest recorded for seed " +
                       std::to_string(o.seed) +
                       "; the cross-path checks still run");
  }
  {
    const bool ok = run_pass(c, 1, oracle_seed).digest() == expected;
    check(r, ok,
          "the pool-parallel pass equals a serial (threads=1) pass bit for "
          "bit");
    reference_ok = reference_ok && ok;
  }
  {
    // Sampled fleet sizes, always including the 10^6 rung.
    std::vector<std::size_t> picks = {c.ladder.size() - 1};
    for (std::uint64_t i = 0; i < 3; ++i)
      picks.push_back(derive(o.seed, kTagSample, i) % c.ladder.size());
    std::sort(picks.begin(), picks.end());
    picks.erase(std::unique(picks.begin(), picks.end()), picks.end());
    std::vector<int> sizes;
    std::string listed;
    for (std::size_t i : picks) {
      sizes.push_back(c.ladder[i]);
      listed += (listed.empty() ? "" : ",") + std::to_string(c.ladder[i]);
    }
    core::FleetColumns lossy =
        core::FleetColumns::start(sizes, oracle_seed, kCampaignCycles);
    c.sim.advance(lossy, 0, 0);
    core::ResilienceColumns resilient =
        core::ResilienceColumns::start(sizes, oracle_seed, kCampaignCycles);
    c.fleet.advance(resilient, 0, 0);
    bool ok = true;
    for (std::size_t k = 0; k < picks.size(); ++k)
      ok = ok &&
           fields(lossy.point(k)) == fields(reference.lossy[picks[k]]) &&
           fields(resilient.point(k)) ==
               fields(reference.resilient[picks[k]]);
    check(r, ok,
          "sweep points at " + listed +
              " hives equal FleetColumns/ResilienceColumns start + advance "
              "field for field");
    reference_ok = reference_ok && ok;
  }
  check(r, mismatched == 0,
        std::to_string(passes - mismatched) + " of " + std::to_string(passes) +
            " timed passes reproduced the reference digest");
  r.attempted = passes;
  r.failed = reference_ok ? mismatched : r.attempted;

  r.record.push_back(
      {"fleet_sizes", "50: 10..400 step 10, 1000..1000000 in 10 log rungs"});
  r.record.push_back({"cycles_per_point", std::to_string(kCampaignCycles)});
  r.record.push_back(
      {"fault_plan", "resilience_sweep kind=mix, rate 0.2, " +
                         std::to_string(c.plan.windows().size()) +
                         " windows"});
  r.record.push_back({"reference_digest", hex(expected)});
  return r;
}

std::uint64_t fleet_campaign_digest(std::uint64_t workload_seed) {
  const Campaign c(workload_seed);
  return run_pass(c, 0, c.seed).digest();
}

CoreInputs fleet_campaign_inputs(std::uint64_t workload_seed) {
  const CoreCase lossy{campaign_params(), campaign_ladder(),
                       derive(workload_seed, kTagCampaign), kCampaignCycles};
  CoreInputs in;
  in.lossy.push_back(lossy);
  in.resilient.push_back(
      {lossy, mix_plan(derive(workload_seed, kTagPlan), kCampaignCycles)});
  return in;
}

void probe_core(const CoreInputs& in, std::uint64_t workload_seed,
                Result& r) {
  std::vector<core::LargeScaleSimulator> sims;
  sims.reserve(in.lossy.size());
  std::uint64_t total = 0;
  for (const CoreCase& c : in.lossy) {
    sims.emplace_back(c.params);
    total += c.counts.size() * static_cast<std::uint64_t>(c.cycles);
  }
  const double cycles = static_cast<double>(total);

  // One untimed replay records what the batched probes feed on: each
  // cycle's surviving count and the Welford row advance() would add.
  std::vector<int> surviving;
  std::vector<double> rows;
  std::vector<std::size_t> point_end;  // cycle offset where a point ends
  std::vector<std::size_t> case_end;   // cycle offset where a case ends
  surviving.reserve(total);
  rows.reserve(total * 5);
  for (std::size_t i = 0; i < in.lossy.size(); ++i) {
    const CoreCase& c = in.lossy[i];
    for (int n : c.counts) {
      util::Rng rng =
          util::Rng::for_stream(c.seed, static_cast<std::uint64_t>(n));
      for (int k = 0; k < c.cycles; ++k) {
        const core::CycleResult cr = sims[i].simulate_cycle(n, rng);
        surviving.push_back(cr.surviving_clients());
        rows.insert(rows.end(),
                    {static_cast<double>(cr.lost_clients),
                     static_cast<double>(cr.active_slots), cr.edge_energy,
                     cr.cloud_energy, cr.edge_energy + cr.cloud_energy});
      }
      point_end.push_back(surviving.size());
    }
    case_end.push_back(surviving.size());
  }

  double sink = 0.0;
  const auto each_stream = [&](const auto& body) {
    for (std::size_t i = 0; i < in.lossy.size(); ++i) {
      const CoreCase& c = in.lossy[i];
      for (int n : c.counts) {
        util::Rng rng =
            util::Rng::for_stream(c.seed, static_cast<std::uint64_t>(n));
        for (int k = 0; k < c.cycles; ++k) body(i, n, rng);
      }
    }
  };
  const std::string batched =
      "batched over the workload's fleet sizes and Rng::for_stream(seed, n) "
      "streams";
  Metric cycle = probe("core.cycle_ns", "ns", 1e9, cycles, [&] {
    each_stream([&](std::size_t i, int n, util::Rng& rng) {
      sink += sims[i].simulate_cycle(n, rng).cloud_energy;
    });
  });
  cycle.basis = "LargeScaleSimulator::simulate_cycle " + batched;
  Metric draw = probe("core.loss_draw_ns", "ns", 1e9, cycles, [&] {
    each_stream([&](std::size_t i, int n, util::Rng& rng) {
      sink += in.lossy[i].params.loss.draw_lost_clients(n, rng);
    });
  });
  draw.basis = "LossConfig::draw_lost_clients " + batched;
  Metric allocate = probe("core.allocate_ns", "ns", 1e9, cycles, [&] {
    core::CompactLayout layout;
    std::size_t at = 0;
    for (std::size_t i = 0; i < in.lossy.size(); ++i) {
      const core::ServerSpec& server = sims[i].effective_server();
      const core::FillPolicy policy = in.lossy[i].params.policy;
      for (; at < case_end[i]; ++at) {
        core::allocate_compact_into(surviving[at], server, policy, layout);
        sink += static_cast<double>(layout.class_count);
      }
    }
  });
  allocate.basis =
      "allocate_compact_into on the surviving counts those draws give";

  std::uint64_t repeats = 0;
  std::size_t from = 0;
  for (std::size_t end : point_end) {
    std::unordered_set<int> seen;
    for (std::size_t k = from; k < end; ++k)
      if (!seen.insert(surviving[k]).second) ++repeats;
    from = end;
  }

  const dsp::KernelTable& kernels = dsp::kernel_table();
  Metric welford = probe("dsp.welford5_ns_per_row", "ns", 1e9, cycles, [&] {
    std::size_t begin = 0;
    for (std::size_t end : point_end) {
      dsp::Welford5 st;
      st.n = 0;
      for (int l = 0; l < 5; ++l) {
        st.mean[l] = st.m2[l] = st.sum[l] = 0.0;
        st.min[l] = std::numeric_limits<double>::infinity();
        st.max[l] = -std::numeric_limits<double>::infinity();
      }
      kernels.welford5_add(&st, rows.data() + begin * 5, end - begin);
      sink += st.mean[4];
      begin = end;
    }
  });
  welford.basis =
      "dsp::kernel_table().welford5_add on the recorded cycle rows, one call "
      "per point";

  Metric sweep =
      as_rate(probe("core.sweep_cycles_per_s", "", 1.0, cycles,
                    [&] {
                      for (std::size_t i = 0; i < in.lossy.size(); ++i) {
                        const CoreCase& c = in.lossy[i];
                        sink += sims[i]
                                    .sweep(c.counts, c.seed, c.cycles, 0)
                                    .back()
                                    .cycles;
                      }
                    }),
              "cycles/s");
  sweep.basis =
      "LargeScaleSimulator::sweep(threads=0) on the workload's campaigns";
  Metric advance =
      as_rate(probe("core.advance_cycles_per_s", "", 1.0, cycles,
                    [&] {
                      for (std::size_t i = 0; i < in.lossy.size(); ++i) {
                        const CoreCase& c = in.lossy[i];
                        core::FleetColumns columns = core::FleetColumns::start(
                            c.counts, c.seed, c.cycles);
                        sims[i].advance(columns, 0, 0);
                        sink += columns.points().back().cycles;
                      }
                    }),
              "cycles/s");
  advance.basis = "FleetColumns::start + advance(threads=0) + points()";

  std::vector<core::ResilientFleet> fleets;
  fleets.reserve(in.resilient.size());
  std::uint64_t resilient_total = 0;
  for (const ResilienceCase& c : in.resilient) {
    fleets.emplace_back(c.base.params, c.plan);
    resilient_total +=
        c.base.counts.size() * static_cast<std::uint64_t>(c.base.cycles);
  }
  Metric resilience =
      as_rate(probe("core.resilience_cycles_per_s", "", 1.0,
                    static_cast<double>(resilient_total),
                    [&] {
                      for (std::size_t j = 0; j < fleets.size(); ++j) {
                        const CoreCase& c = in.resilient[j].base;
                        sink += fleets[j]
                                    .sweep(c.counts, c.seed, c.cycles, 0)
                                    .back()
                                    .cycles;
                      }
                    }),
              "cycles/s");
  resilience.basis =
      "ResilientFleet::sweep(threads=0), fault injection included";

  // util.pool.speedup always runs on a slice of fleet_campaign's campaign.
  const CoreInputs campaign = fleet_campaign_inputs(workload_seed);
  const CoreCase& whole = campaign.lossy.front();
  std::vector<int> slice;
  for (std::size_t i = 0; i < whole.counts.size(); i += 3)
    slice.push_back(whole.counts[i]);
  const core::LargeScaleSimulator sim(whole.params);
  const double slice_cycles =
      static_cast<double>(slice.size()) * whole.cycles;
  const auto sweep_slice = [&](unsigned threads) {
    return probe("", "", 1.0, slice_cycles, [&] {
      sink += sim.sweep(slice, whole.seed, whole.cycles, threads).back().cycles;
    });
  };
  const Metric wide = sweep_slice(0);
  const Metric serial = sweep_slice(1);

  r.metrics.push_back(cycle);
  r.metrics.push_back(draw);
  r.metrics.push_back(allocate);
  add(r, "core.cycle_rest_ns", "ns",
      cycle.value - draw.value - allocate.value, cycle.samples,
      "core.cycle_ns - loss_draw_ns - allocate_ns: server energy and edge "
      "accounting");
  add(r, "core.surviving_repeat_frac", "frac",
      cycles > 0.0 ? static_cast<double>(repeats) / cycles : 0.0, total,
      "replayed draws: cycles whose surviving count already occurred at "
      "their point");
  r.metrics.push_back(sweep);
  r.metrics.push_back(advance);
  r.metrics.push_back(resilience);
  r.metrics.push_back(welford);
  r.metrics.push_back(
      {"util.pool.speedup", "x", serial.value / wide.value,
       std::hypot(serial.spread, wide.spread),
       std::min(serial.samples, wide.samples),
       "sweep time at threads=1 over threads=0, every third fleet size of "
       "fleet_campaign"});
  keep(sink);
}

}  // namespace perfbench
