// google-benchmark microbenchmarks for the substrate kernels: FFT, mel
// spectrogram, CNN forward pass, SVM kernel evaluation, the analytic
// large-scale simulator, and the discrete-event engine. These are the
// hot paths of every figure bench; regressions here make the reproduction
// slow long before they make it wrong.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "audio/synth.hpp"
#include "core/network_sim.hpp"
#include "dsp/dispatch.hpp"
#include "dsp/mel.hpp"
#include "dsp/simd_kernels.hpp"
#include "dsp/spectrogram.hpp"
#include "dsp/stft.hpp"
#include "ml/network.hpp"
#include "ml/precision.hpp"
#include "ml/svm.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace beesim;

/// The tier a kernel_table(tier) call runs: the request, clamped to what
/// the CPU has. Reported as the `isa` counter (0 scalar .. 3 AVX-512).
double isa_ran(dsp::IsaTier tier) {
  return static_cast<double>(
      std::min(static_cast<int>(tier), static_cast<int>(dsp::detected_isa())));
}

// The batched real FFT: one stft_power_batch call on the given dispatch
// tier windows StftPlan::kBatch frames a quarter frame apart and writes
// their power, each lane an N/2-point complex transform on precomputed
// tables (the per-frame planned FFT it replaced and the naive full
// complex FFT are test oracles in tests/dsp_oracle.hpp). Items are
// frames; `time_per_frame` is the time of one call divided by its
// kBatch frames. Every tier runs, not only the active one.
void BM_RealFftPlanned(benchmark::State& state, dsp::IsaTier tier) {
  constexpr std::size_t kBatch = dsp::StftPlan::kBatch;
  const auto n = static_cast<std::size_t>(state.range(0));
  dsp::StftParams p;
  p.n_fft = n;
  p.hop = n / 4;
  const dsp::StftPlan plan(p);
  const dsp::StftTables tables = plan.tables();
  util::Rng rng(1);
  std::vector<double> signal(n + (kBatch - 1) * p.hop);
  for (auto& v : signal) v = rng.normal();
  const double* frames[kBatch];
  for (std::size_t l = 0; l < kBatch; ++l)
    frames[l] = signal.data() + l * p.hop;
  // Cache-line aligned, as StftPlan::for_each_frame aligns its scratch.
  std::vector<double> buffer(dsp::stft_scratch_size(n) + 8);
  void* start = buffer.data();
  std::size_t space = buffer.size() * sizeof(double);
  auto* scratch = static_cast<double*>(std::align(
      64, dsp::stft_scratch_size(n) * sizeof(double), start, space));
  const dsp::KernelTable& kernels = dsp::kernel_table(tier);
  for (auto _ : state) {
    kernels.stft_power_batch(tables, frames, scratch);
    benchmark::DoNotOptimize(scratch);
    benchmark::ClobberMemory();
  }
  const auto frames_done = static_cast<double>(state.iterations()) *
                           static_cast<double>(kBatch);
  state.SetItemsProcessed(static_cast<std::int64_t>(frames_done));
  state.counters["time_per_frame"] = benchmark::Counter(
      frames_done, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["isa"] = isa_ran(tier);
}
BENCHMARK_CAPTURE(BM_RealFftPlanned, scalar, dsp::IsaTier::kScalar)
    ->Arg(512)->Arg(2048)->Arg(8192);
BENCHMARK_CAPTURE(BM_RealFftPlanned, sse2, dsp::IsaTier::kSse2)
    ->Arg(512)->Arg(2048)->Arg(8192);
BENCHMARK_CAPTURE(BM_RealFftPlanned, avx2, dsp::IsaTier::kAvx2)
    ->Arg(512)->Arg(2048)->Arg(8192);
BENCHMARK_CAPTURE(BM_RealFftPlanned, avx512, dsp::IsaTier::kAvx512)
    ->Arg(512)->Arg(2048)->Arg(8192);

void BM_MelSpectrogram(benchmark::State& state) {
  const double seconds = static_cast<double>(state.range(0)) / 10.0;
  audio::BeeAudioSynth synth;
  util::Rng rng(2);
  const auto clip = synth.synthesize(true, seconds, rng);
  dsp::MelSpectrogram mel;
  for (auto _ : state) {
    auto m = mel.compute(clip);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_MelSpectrogram)->Arg(5)->Arg(10)->Arg(30);  // 0.5 / 1 / 3 s

// Banded filterbank apply, isolated from the STFT: 128 mel bands over the
// 44 frames of a 1-second clip, one StftPlan batch per apply into its
// columns of the mel matrix, laid out as StftPlan hands a batch over (bin
// b of frame l at kBatch b + l, each batch kBatch lanes wide) — the form
// MelSpectrogram::compute runs, the short last batch included. Every tier
// runs; `time_per_frame` is the time of the 44 frames divided by 44.
void BM_FilterbankBanded(benchmark::State& state, dsp::IsaTier tier) {
  util::Rng rng(6);
  const dsp::BandedFilterbank banded(dsp::mel_filterbank(128, 2048, 22050.0));
  constexpr std::size_t kFrames = 44;
  constexpr std::size_t kBatch = dsp::StftPlan::kBatch;
  constexpr std::size_t kBatches = (kFrames + kBatch - 1) / kBatch;
  std::vector<double> power(kBatches * kBatch * banded.bins());
  for (double& v : power) v = rng.uniform(0.0, 10.0);
  dsp::Matrix mel(banded.bands(), kFrames);
  const dsp::BandTables tables = banded.tables();
  const dsp::KernelTable& kernels = dsp::kernel_table(tier);
  for (auto _ : state) {
    for (std::size_t f = 0; f < kFrames; f += kBatch)
      kernels.mel_bands_batch(tables, power.data() + f * banded.bins(),
                              std::min(kBatch, kFrames - f), mel.data() + f,
                              kFrames);
    benchmark::DoNotOptimize(mel.data());
    benchmark::ClobberMemory();
  }
  const auto frames_done = static_cast<double>(state.iterations()) *
                           static_cast<double>(kFrames);
  state.counters["time_per_frame"] = benchmark::Counter(
      frames_done, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["nnz"] = static_cast<double>(banded.nonzeros());
  state.counters["isa"] = isa_ran(tier);
}
BENCHMARK_CAPTURE(BM_FilterbankBanded, scalar, dsp::IsaTier::kScalar);
BENCHMARK_CAPTURE(BM_FilterbankBanded, sse2, dsp::IsaTier::kSse2);
BENCHMARK_CAPTURE(BM_FilterbankBanded, avx2, dsp::IsaTier::kAvx2);
BENCHMARK_CAPTURE(BM_FilterbankBanded, avx512, dsp::IsaTier::kAvx512);

void BM_AudioSynthesis(benchmark::State& state) {
  audio::BeeAudioSynth synth;
  util::Rng rng(3);
  const double seconds = static_cast<double>(state.range(0)) / 10.0;
  for (auto _ : state) {
    auto clip = synth.synthesize(false, seconds, rng);
    benchmark::DoNotOptimize(clip.data());
  }
}
BENCHMARK(BM_AudioSynthesis)->Arg(10)->Arg(100);

void BM_CnnForward(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4);
  auto net = ml::make_queen_cnn(rng, 8, side);
  ml::Tensor input({1, 1, side, side});
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    auto out = net.forward(input, false);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_CnnForward)->Arg(20)->Arg(50)->Arg(100);

// GEMM microkernels behind the runtime CPU dispatch, on the conv-like
// shape of the 100x100 queen CNN's widest layer (m = output channels,
// n = output pixels, k = in_channels * 3 * 3 after im2col). One shape,
// every f32 tier plus int8: the tier ratios justify the dispatch layer,
// the int8 ratio is the measured throughput scale committed in
// ml::precision_throughput_scale (EXPERIMENTS.md tables the last
// recorded numbers).
constexpr std::size_t kGemmM = 16;
constexpr std::size_t kGemmN = 2500;
constexpr std::size_t kGemmK = 144;

struct GemmOperands {
  std::vector<float> a, b, bias, c;
  GemmOperands() : a(kGemmM * kGemmK), b(kGemmK * kGemmN), bias(kGemmM),
                   c(kGemmM * kGemmN) {
    util::Rng rng(9);
    for (auto& v : a) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& v : bias) v = static_cast<float>(rng.normal(0.0, 1.0));
  }
};

void gemm_f32_tier(benchmark::State& state, dsp::IsaTier tier) {
  GemmOperands ops;
  const dsp::KernelTable& kt = dsp::kernel_table(tier);
  for (auto _ : state) {
    kt.sgemm_bias(kGemmM, kGemmN, kGemmK, ops.a.data(), ops.b.data(),
                  ops.bias.data(), ops.c.data());
    benchmark::DoNotOptimize(ops.c.data());
  }
  // FLOPs (mul + add per element-product) so tiers compare as flops/s.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kGemmM * kGemmN *
                                                    kGemmK));
}

void BM_GemmF32Scalar(benchmark::State& state) {
  gemm_f32_tier(state, dsp::IsaTier::kScalar);
}
BENCHMARK(BM_GemmF32Scalar);

void BM_GemmF32Sse2(benchmark::State& state) {
  gemm_f32_tier(state, dsp::IsaTier::kSse2);
}
BENCHMARK(BM_GemmF32Sse2);

void BM_GemmF32Avx2(benchmark::State& state) {
  // On CPUs without AVX2 the table degrades to the best supported tier —
  // the `isa` counter records what actually ran.
  state.counters["isa"] =
      static_cast<double>(dsp::detected_isa() >= dsp::IsaTier::kAvx2 ? 2
                          : dsp::detected_isa() == dsp::IsaTier::kSse2 ? 1
                                                                       : 0);
  gemm_f32_tier(state, dsp::IsaTier::kAvx2);
}
BENCHMARK(BM_GemmF32Avx2);

void BM_GemmInt8(benchmark::State& state) {
  GemmOperands ops;
  const auto qa = ml::quantize_rows_s8(ops.a.data(), kGemmM, kGemmK);
  const auto qb = ml::quantize_tensor_s8(ops.b.data(), ops.b.size());
  const dsp::KernelTable& kt = dsp::kernel_table();
  for (auto _ : state) {
    kt.sgemm_bias_s8(kGemmM, kGemmN, kGemmK, qa.values.data(),
                     qa.scales.data(), qb.values.data(), qb.scale,
                     ops.bias.data(), ops.c.data());
    benchmark::DoNotOptimize(ops.c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kGemmM * kGemmN *
                                                    kGemmK));
}
BENCHMARK(BM_GemmInt8);

void BM_SvmDecision(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<bool> y;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> row(128);
    const bool cls = i % 2 == 0;
    for (auto& v : row) v = rng.normal(cls ? 1.0 : -1.0, 1.0);
    x.push_back(std::move(row));
    y.push_back(cls);
  }
  ml::SvmClassifier::Params p;
  p.gamma = 0.01;
  ml::SvmClassifier svm(p);
  svm.fit(x, y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(svm.decision(x[0]));
  }
  state.counters["support_vectors"] =
      static_cast<double>(svm.support_vector_count());
}
BENCHMARK(BM_SvmDecision);

void BM_LargeScaleCycle(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  core::LargeScaleSimulator sim(core::FleetParams::paper_default());
  for (auto _ : state) {
    auto r = sim.simulate_ideal_cycle(clients);
    benchmark::DoNotOptimize(r.cloud_energy);
  }
}
BENCHMARK(BM_LargeScaleCycle)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EngineEvents(benchmark::State& state) {
  const auto events = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (std::uint64_t i = 0; i < events; ++i)
      engine.schedule_at(static_cast<double>(i), [](sim::Engine&) {});
    engine.run();
    benchmark::DoNotOptimize(engine.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EngineEvents)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
