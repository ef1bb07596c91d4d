#include "dsp/stft.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <cstddef>
#include <numbers>
#include <stdexcept>

#include "dsp/window.hpp"
#include "obs/catalog.hpp"
#include "util/parallel.hpp"

namespace beesim::dsp {
namespace {

const StftParams& checked(const StftParams& params) {
  if (!is_power_of_two(params.n_fft))
    throw std::invalid_argument("stft: n_fft must be a power of two");
  if (params.hop == 0) throw std::invalid_argument("stft: hop must be > 0");
  return params;
}

/// One count per transformed frame (the spare lanes of a short batch are
/// not frames).
void count_frames(std::size_t frames) {
  if (obs::enabled()) {
    static auto& counter =
        obs::registry().counter(obs::metric::kDspStftFrames);
    static auto& reuses =
        obs::registry().counter(obs::metric::kDspFftPlanReuses);
    counter.inc(frames);
    reuses.inc(frames);
  }
}

/// The n_fft samples frame f reads from padded, the signal reflect-padded
/// by n_fft/2 on each side when p.center (else the signal itself): a
/// pointer into x when the frame lies inside it, else lane `lane` of
/// `mapped` (sized on first use) holding the samples with each index
/// mapped back into the signal the librosa way, mirrored around the end
/// samples without repeating them (index -s reads x[s], index
/// len - 1 + s reads x[len - 1 - s]).
const double* frame_samples(const std::vector<double>& x, const StftParams& p,
                            std::size_t f, std::vector<double>& mapped,
                            std::size_t lane) {
  const std::size_t n = p.n_fft;
  const std::size_t pad = p.center ? n / 2 : 0;
  const std::size_t start = f * p.hop;
  if (start >= pad && start - pad + n <= x.size())
    return x.data() + (start - pad);
  if (mapped.empty()) mapped.resize(StftPlan::kBatch * n);
  double* out = mapped.data() + lane * n;
  const auto len = static_cast<std::ptrdiff_t>(x.size());
  const auto first = static_cast<std::ptrdiff_t>(start) -
                     static_cast<std::ptrdiff_t>(pad);
  for (std::size_t i = 0; i < n; ++i) {
    std::ptrdiff_t s = first + static_cast<std::ptrdiff_t>(i);
    if (s < 0) s = -s;
    else if (s >= len) s = 2 * len - 2 - s;
    out[i] = x[static_cast<std::size_t>(s)];
  }
  return out;
}

}  // namespace

StftPlan::StftPlan(const StftParams& params)
    : params_(checked(params)), window_(hann_window(params.n_fft)) {
  const std::size_t n = params.n_fft;
  const std::size_t m = n / 2;  // points of the packed complex sequence
  // Bit-reversal permutation of the m packed points.
  bitrev_.resize(m);
  std::size_t j = 0;
  for (std::size_t i = 1; i < m; ++i) {
    std::size_t bit = m >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = j;
  }
  // Per-stage twiddles exp(-i 2pi k / len), each computed directly (no
  // incremental drift) and shared by every butterfly block of its stage.
  for (std::size_t len = 2; len <= m; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double a = angle * static_cast<double>(k);
      twiddle_re_.push_back(std::cos(a));
      twiddle_im_.push_back(std::sin(a));
    }
  }
  // The untangle needs exp(-i 2pi k / n) for k = 1 .. n/4; k = 0 is
  // stored too, for direct indexing.
  for (std::size_t k = 0; k <= n / 4; ++k) {
    const double a = -2.0 * std::numbers::pi * static_cast<double>(k) /
                     static_cast<double>(n);
    post_re_.push_back(std::cos(a));
    post_im_.push_back(std::sin(a));
  }
}

std::size_t StftPlan::frames(std::size_t signal_len) const {
  // Reflection needs n_fft/2 <= len - 1; a shorter signal would wrap
  // around instead of mirroring.
  if (params_.center &&
      (signal_len < 2 || params_.n_fft / 2 > signal_len - 1))
    throw std::invalid_argument(
        "stft: signal too short to reflect-pad (need length > n_fft/2)");
  const std::size_t count = stft_frame_count(signal_len, params_);
  if (count == 0) throw std::invalid_argument("stft: signal too short");
  return count;
}

StftTables StftPlan::tables() const noexcept {
  return {params_.n_fft,      window_.data(),     bitrev_.data(),
          twiddle_re_.data(), twiddle_im_.data(), post_re_.data(),
          post_im_.data()};
}

void StftPlan::for_each_frame(const std::vector<double>& signal,
                              const BatchSink& sink) const {
  const std::size_t count = frames(signal.size());
  const StftTables t = tables();
  const std::size_t n = params_.n_fft;
  // Small fixed chunks (27 for a 10 s clip) claimed off the pool's
  // shared cursor: a worker that wakes late or is preempted holds up
  // only its one chunk while the others take the rest. A chunk is two
  // batches, so its scratch setup stays negligible. Nested inside
  // another parallel region (the clip-parallel dataset featurizer) the
  // loop still goes wide: the task pool composes nested regions on one
  // bounded worker set.
  constexpr std::size_t kChunkFrames = 2 * kBatch;
  const std::size_t chunks = (count + kChunkFrames - 1) / kChunkFrames;
  util::parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * kChunkFrames;
    const std::size_t end = std::min(begin + kChunkFrames, count);
    const KernelTable& kernels = kernel_table();
    // The power is written over the real parts, so one buffer serves:
    // 8 x 2049 doubles, 131,136 bytes at n_fft 2048, above glibc's
    // initial 128 KiB mmap threshold. glibc raises that threshold past a
    // mapped block when it frees one, so later chunks come from the heap:
    // queen_detect's peak RSS stayed at 14.4 MB, as with four-frame
    // batches (EXPERIMENTS.md "Eight-frame batches"). Started on a cache
    // line, the kernel's vector loads and stores split none, which
    // malloc's 16-byte alignment does not promise (EXPERIMENTS.md
    // "Batched STFT"). The kernel writes every scratch double before
    // reading it, so none is zeroed here.
    const std::size_t size = stft_scratch_size(n);
    const auto buffer = std::make_unique_for_overwrite<double[]>(size + 8);
    void* start = buffer.get();
    std::size_t space = (size + 8) * sizeof(double);
    auto* scratch = static_cast<double*>(
        std::align(64, size * sizeof(double), start, space));
    std::vector<double> mapped;  // the batch's reflect-mapped frames
    for (std::size_t first = begin; first < end; first += kBatch) {
      const std::size_t lanes = std::min(kBatch, end - first);
      const double* samples[kBatch];
      for (std::size_t l = 0; l < kBatch; ++l)
        samples[l] = l < lanes
                         ? frame_samples(signal, params_, first + l, mapped, l)
                         : samples[lanes - 1];
      kernels.stft_power_batch(t, samples, scratch);
      sink(first, lanes, scratch);
    }
  });
  count_frames(count);
}

std::size_t stft_frame_count(std::size_t signal_len, const StftParams& p) {
  // center pads n_fft/2 samples on each side: none at n_fft 1.
  const std::size_t padded =
      p.center ? signal_len + 2 * (p.n_fft / 2) : signal_len;
  if (padded < p.n_fft) return 0;
  return (padded - p.n_fft) / p.hop + 1;
}

Matrix stft_power(const std::vector<double>& signal,
                  const StftParams& params) {
  const StftPlan plan(params);
  Matrix out(plan.bins(), plan.frames(signal.size()));
  plan.for_each_frame(
      signal, [&](std::size_t first, std::size_t count, const double* power) {
        for (std::size_t b = 0; b < out.rows(); ++b)
          for (std::size_t l = 0; l < count; ++l)
            out(b, first + l) = power[StftPlan::kBatch * b + l];
      });
  return out;
}

}  // namespace beesim::dsp
