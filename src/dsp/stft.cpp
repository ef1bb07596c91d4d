#include "dsp/stft.hpp"

#include <algorithm>
#include <cstddef>
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

void count_frames(std::size_t frames) {
  if (obs::enabled()) {
    static auto& counter =
        obs::registry().counter(obs::metric::kDspStftFrames);
    counter.inc(frames);
  }
}

/// out[i] = padded[f * hop + i] * window[i], where padded is the signal
/// reflect-padded by n_fft/2 on each side when p.center (else the signal
/// itself). A frame inside the signal reads it in place; a frame that
/// overlaps the pad maps each index back into the signal the librosa
/// way, mirrored around the end samples without repeating them (index
/// -s reads x[s], index len - 1 + s reads x[len - 1 - s]).
void window_frame(const std::vector<double>& x, const StftParams& p,
                  const double* window, std::size_t f, double* out) {
  const std::size_t n = p.n_fft;
  const std::size_t pad = p.center ? n / 2 : 0;
  const std::size_t start = f * p.hop;
  if (start >= pad && start - pad + n <= x.size()) {
    const double* in = x.data() + (start - pad);
    for (std::size_t i = 0; i < n; ++i) out[i] = in[i] * window[i];
    return;
  }
  const auto len = static_cast<std::ptrdiff_t>(x.size());
  const auto first = static_cast<std::ptrdiff_t>(start) -
                     static_cast<std::ptrdiff_t>(pad);
  for (std::size_t i = 0; i < n; ++i) {
    std::ptrdiff_t s = first + static_cast<std::ptrdiff_t>(i);
    if (s < 0) s = -s;
    else if (s >= len) s = 2 * len - 2 - s;
    out[i] = x[static_cast<std::size_t>(s)] * window[i];
  }
}

}  // namespace

StftPlan::StftPlan(const StftParams& params)
    : params_(checked(params)),
      plan_(params.n_fft),
      window_(hann_window(params.n_fft)) {}

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

void StftPlan::for_each_frame(const std::vector<double>& signal,
                              const FrameSink& sink) const {
  const std::size_t count = frames(signal.size());
  // Small fixed chunks (27 for a 10 s clip) claimed off the pool's
  // shared cursor: a worker that wakes late or is preempted holds up
  // only its one chunk while the others take the rest. A chunk is still
  // enough FFTs that its scratch setup stays negligible. Nested inside
  // another parallel region (the clip-parallel dataset featurizer) the
  // loop still goes wide: the task pool composes nested regions on one
  // bounded worker set.
  constexpr std::size_t kChunkFrames = 16;
  const std::size_t chunks = (count + kChunkFrames - 1) / kChunkFrames;
  util::parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * kChunkFrames;
    const std::size_t end = std::min(begin + kChunkFrames, count);
    std::vector<double> frame(params_.n_fft);
    std::vector<Complex> scratch(plan_.scratch_size());
    std::vector<double> power(bins());
    for (std::size_t f = begin; f < end; ++f) {
      window_frame(signal, params_, window_.data(), f, frame.data());
      plan_.power(frame.data(), power.data(), scratch.data());
      sink(f, power.data());
    }
  });
  count_frames(count);
}

std::size_t stft_frame_count(std::size_t signal_len, const StftParams& p) {
  const std::size_t padded =
      p.center ? signal_len + p.n_fft : signal_len;
  if (padded < p.n_fft) return 0;
  return (padded - p.n_fft) / p.hop + 1;
}

Matrix stft_power(const std::vector<double>& signal,
                  const StftParams& params) {
  const StftPlan plan(params);
  Matrix out(plan.bins(), plan.frames(signal.size()));
  plan.for_each_frame(signal, [&](std::size_t f, const double* power) {
    for (std::size_t b = 0; b < out.rows(); ++b) out(b, f) = power[b];
  });
  return out;
}

}  // namespace beesim::dsp
