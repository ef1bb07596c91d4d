// queen_detect: the paper's queen-detection service run clip by clip,
// plus the dsp/ml probes every traced run reports.

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "audio/synth.hpp"
#include "common.hpp"
#include "dsp/spectrogram.hpp"
#include "dsp/stft.hpp"
#include "ml/gemm.hpp"
#include "ml/network.hpp"

namespace perfbench {
namespace {

using namespace beesim;

constexpr int kClips = 4;
constexpr double kClipSeconds = 10.0;
constexpr std::size_t kSide = 100;
constexpr std::size_t kBaseChannels = 8;

constexpr std::uint64_t kTagAudio = 0x617564;
constexpr std::uint64_t kTagCnn = 0x636e6e;
constexpr std::uint64_t kTagGemm = 0x67656d6d;

ml::Network make_network(std::uint64_t workload_seed) {
  util::Rng rng(derive(workload_seed, kTagCnn));
  return ml::make_queen_cnn(rng, kBaseChannels, kSide);
}

/// The service's inputs for one workload seed: 10 s clips synthesized in
/// turn (queenright, queenless, ...) from one stream, the mel front end
/// and the CNN. The first clip is the same whatever the clip count.
struct Detector {
  Detector(std::uint64_t workload_seed, int clip_count)
      : net(make_network(workload_seed)) {
    const audio::BeeAudioSynth synth;
    util::Rng rng(derive(workload_seed, kTagAudio));
    for (int i = 0; i < clip_count; ++i)
      clips.push_back(synth.synthesize(i % 2 == 0, kClipSeconds, rng));
  }

  std::vector<std::vector<double>> clips;
  dsp::MelSpectrogram mel;
  ml::Network net;
};

using Logits = std::array<float, 2>;

Logits classify(Detector& d, std::size_t clip) {
  std::vector<dsp::Matrix> batch;
  batch.push_back(d.mel.compute_image(d.clips[clip], kSide));
  const ml::Tensor out = d.net.forward(ml::images_to_tensor(batch), false);
  return {out[0], out[1]};
}

std::uint64_t digest(const std::vector<Logits>& logits) {
  Digest d;
  for (const Logits& l : logits) {
    d.f32(l[0]);
    d.f32(l[1]);
  }
  return d.value();
}

bool same(const Logits& a, const Logits& b) {
  return std::memcmp(a.data(), b.data(), sizeof(Logits)) == 0;
}

enum SpanName { kClipSpan, kMelSpan, kTensorSpan, kForwardSpan };

struct WindowRun {
  // The log is built (and its reservoir touched) before the window opens.
  explicit WindowRun(double seconds) : window(seconds) {}

  OpLog log;
  Window window;
  std::uint64_t mismatched = 0;

  double units_per_s() const { return units_per_second({&log}, window); }
};

/// Clips round-robin until the window closes; operation i classifies
/// clip i % clips and must reproduce that clip's reference logits bit for
/// bit.
WindowRun run_window(Detector& d, double seconds,
                     const std::vector<Logits>& reference, Tracer* tracer) {
  WindowRun run(seconds);
  for (std::uint64_t op = 0; run.window.open(); ++op) {
    const std::size_t clip = op % d.clips.size();
    const auto t0 = Clock::now();
    std::vector<dsp::Matrix> batch;
    batch.push_back(d.mel.compute_image(d.clips[clip], kSide));
    const auto t1 = Clock::now();
    const ml::Tensor input = ml::images_to_tensor(batch);
    const auto t2 = Clock::now();
    const ml::Tensor out = d.net.forward(input, false);
    const auto t3 = Clock::now();
    run.log.add(run.window, t0, t3);
    if (tracer != nullptr)
      tracer->record(0, op, kClipSpan, t0, t3,
                     {{kMelSpan, t0, t1},
                      {kTensorSpan, t1, t2},
                      {kForwardSpan, t2, t3}});
    if (!same({out[0], out[1]}, reference[clip])) ++run.mismatched;
  }
  return run;
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

}  // namespace

Result run_queen_detect(const Options& o, const References& refs) {
  Result r;
  Detector d(o.seed, kClips);
  // The untimed pass; it also yields the reference logits.
  std::vector<Logits> reference;
  for (std::size_t c = 0; c < d.clips.size(); ++c)
    reference.push_back(classify(d, c));
  const std::uint64_t expected = digest(reference);
  r.setup_seconds = seconds_between(kProcessStart, Clock::now());
  if (o.setup_only) return r;
  if (o.wrong_reference)
    reference[0][0] = std::nextafter(reference[0][0], INFINITY);

  std::uint64_t attempted = 0, mismatched = 0;
  if (!o.trace) {
    const WindowRun run = run_window(d, o.seconds, reference, nullptr);
    r.metrics.push_back(peak_rss_metric());
    r.metrics.push_back(throughput_metric(
        {&run.log}, run.window,
        "clips classified per second by one issuer; median of 10 slices"));
    for (Metric& m :
         latency_metrics({&run.log}, "clips: mel image, tensor, CNN forward"))
      r.metrics.push_back(m);
    attempted = run.log.ops;
    mismatched = run.mismatched;
  } else {
    Tracer tracer(
        {"bench.clip", "dsp.mel_image", "ml.images_to_tensor", "ml.forward"},
        1);
    const auto pool = util::TaskPool::instance().stats();
    const WindowRun spans = run_window(d, o.seconds / 2, reference, &tracer);
    add_pool_counts(r, pool, static_cast<double>(spans.log.ops));
    ObsWindow obs;
    const WindowRun counted = run_window(d, o.seconds / 2, reference, nullptr);
    obs.finish(r, static_cast<double>(counted.log.ops), spans.units_per_s(),
               counted.units_per_s());
    attempted = spans.log.ops + counted.log.ops;
    mismatched = spans.mismatched + counted.mismatched;
    const std::vector<double> mel = tracer.durations_us(kMelSpan);
    const std::vector<double> forward = tracer.durations_us(kForwardSpan);
    add(r, "dsp.mel_image_ms", "ms", median(mel) / 1e3, mel.size(),
        "MelSpectrogram::compute_image(clip, 100) spans, span half median");
    add(r, "ml.cnn_forward_ms", "ms", median(forward) / 1e3, forward.size(),
        "Network::forward spans on one 1x1x100x100 tensor, span half "
        "median");
    char share[64];
    std::snprintf(share, sizeof share, "%.1f%%",
                  100.0 * (sum(mel) + sum(forward)) /
                      sum(tracer.durations_us(kClipSpan)));
    r.record.push_back({"mel_plus_forward_share_of_clip_time", share});
    if (!tracer.write_chrome_trace(trace_path(o)))
      r.checks.push_back("n/a   could not write " + trace_path(o));
    r.self_time = tracer.self_time_table();
  }

  // Output checks, outside the timed window.
  bool finite = true;
  for (const Logits& l : reference)
    finite = finite && std::isfinite(l[0]) && std::isfinite(l[1]);
  check(r, finite, "reference logits are finite");
  bool reference_ok = finite;
  std::uint64_t recorded = 0;
  if (refs.find(o.workload, o.seed, &recorded)) {
    if (o.wrong_reference) recorded = ~recorded;
    const bool ok = recorded == expected;
    check(r, ok,
          "logits digest " + hex(expected) +
              " equals the digest recorded for seed " + std::to_string(o.seed));
    reference_ok = reference_ok && ok;
  } else {
    r.checks.push_back("n/a   no digest recorded for seed " +
                       std::to_string(o.seed) +
                       "; timed clips are still checked against the setup "
                       "pass");
  }
  check(r, mismatched == 0,
        std::to_string(attempted - mismatched) + " of " +
            std::to_string(attempted) +
            " timed clips reproduced their reference logits bit for bit");
  r.attempted = attempted;
  r.failed = reference_ok ? mismatched : attempted;

  r.record.push_back({"clips", std::to_string(kClips) +
                                   " x 10 s at 22050 Hz, alternating "
                                   "queenright/queenless, round-robin"});
  r.record.push_back({"reference_digest", hex(expected)});
  return r;
}

std::uint64_t queen_detect_digest(std::uint64_t workload_seed) {
  Detector d(workload_seed, kClips);
  std::vector<Logits> logits;
  for (std::size_t c = 0; c < d.clips.size(); ++c)
    logits.push_back(classify(d, c));
  return digest(logits);
}

void probe_queen(const Options& o, bool mel_and_forward, Result& r) {
  Detector d(o.seed, 1);
  const std::vector<double>& clip = d.clips.front();
  double sink = 0.0;
  if (mel_and_forward) {
    Metric mel = probe("dsp.mel_image_ms", "ms", 1e3, 1.0, [&] {
      sink += d.mel.compute_image(clip, kSide)(0, 0);
    });
    mel.basis =
        "MelSpectrogram::compute_image(clip, 100) on the seed's first "
        "queen_detect clip (this workload runs no dsp)";
    r.metrics.push_back(mel);
    std::vector<dsp::Matrix> batch;
    batch.push_back(d.mel.compute_image(clip, kSide));
    const ml::Tensor input = ml::images_to_tensor(batch);
    Metric forward = probe("ml.cnn_forward_ms", "ms", 1e3, 1.0,
                           [&] { sink += d.net.forward(input, false)[0]; });
    forward.basis =
        "Network::forward on that clip's 1x1x100x100 tensor (this workload "
        "runs no ml)";
    r.metrics.push_back(forward);
  }
  Metric stft = probe("dsp.stft_ms", "ms", 1e3, 1.0,
                      [&] { sink += dsp::stft_power(clip)(0, 0); });
  stft.basis = "dsp::stft_power, n_fft 2048 and hop 512, on one 10 s clip";
  r.metrics.push_back(stft);

  // sgemm_bias at the CNN's two im2col-lowered conv shapes (m x n x k).
  struct Shape {
    std::size_t m, n, k;
  };
  const Shape shapes[] = {
      {kBaseChannels, kSide * kSide, 9},
      {2 * kBaseChannels, (kSide / 2) * (kSide / 2), kBaseChannels * 9}};
  util::Rng rng(derive(o.seed, kTagGemm));
  const auto random = [&](std::size_t count) {
    std::vector<float> v(count);
    for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return v;
  };
  std::vector<std::vector<float>> a, b, bias, c;
  double flops = 0.0;
  double bytes = 0.0;
  for (const Shape& s : shapes) {
    a.push_back(random(s.m * s.k));
    b.push_back(random(s.k * s.n));
    bias.push_back(random(s.m));
    c.emplace_back(s.m * s.n);
    flops += 2.0 * static_cast<double>(s.m * s.n * s.k);
    bytes +=
        4.0 * static_cast<double>(s.m * s.k + s.k * s.n + s.m + s.m * s.n);
  }
  Metric gemm = as_rate(probe("ml.sgemm_gflops", "", 1.0, flops,
                              [&] {
                                for (std::size_t i = 0; i < 2; ++i) {
                                  const Shape& s = shapes[i];
                                  ml::sgemm_bias(s.m, s.n, s.k, a[i].data(),
                                                 b[i].data(), bias[i].data(),
                                                 c[i].data());
                                  sink += c[i][0];
                                }
                              }),
                        "GFLOP/s");
  gemm.value /= 1e9;
  gemm.basis = "ml::sgemm_bias at conv1 8x10000x9 and conv2 16x2500x72";
  r.metrics.push_back(gemm);
  char per_call[128];
  std::snprintf(per_call, sizeof per_call,
                "%.0f flops, %.0f computed bytes (%.2f flops/byte)", flops,
                bytes, flops / bytes);
  r.record.push_back({"ml.sgemm_per_call", per_call});
  keep(sink);
}

}  // namespace perfbench
