#include "dsp/stft.hpp"

#include <algorithm>
#include <stdexcept>

#include "dsp/fft.hpp"
#include "dsp/window.hpp"
#include "obs/catalog.hpp"
#include "util/parallel.hpp"

namespace beesim::dsp {
namespace {

/// Reflect-pads the signal by pad samples on each side. Librosa-style
/// reflection mirrors around the end samples without repeating them, so
/// it needs pad <= signal.size() - 1; shorter signals cannot be padded
/// (the old modulo indexing silently wrapped to a non-reflect padding).
std::vector<double> reflect_pad(const std::vector<double>& x,
                                std::size_t pad) {
  if (x.size() < 2 || pad > x.size() - 1)
    throw std::invalid_argument(
        "stft: signal too short to reflect-pad (need length > n_fft/2)");
  std::vector<double> out;
  out.reserve(x.size() + 2 * pad);
  for (std::size_t i = pad; i > 0; --i) out.push_back(x[i]);
  out.insert(out.end(), x.begin(), x.end());
  for (std::size_t i = 0; i < pad; ++i) out.push_back(x[x.size() - 2 - i]);
  return out;
}

void count_frames(std::size_t frames) {
  if (obs::enabled()) {
    static auto& counter =
        obs::registry().counter(obs::metric::kDspStftFrames);
    counter.inc(frames);
  }
}

/// The frame loop: one RealFftPlan shared by all frames, frames split
/// into contiguous chunks across util::parallel_for, per-chunk scratch
/// buffers and no per-frame heap allocation. Every frame's output is
/// independent, so the result is bit-identical for any chunk count.
/// Runs chunk-parallel even when nested inside another parallel region
/// (e.g. the clip-parallel dataset featurizer): the task pool composes
/// nested regions on one bounded worker set, so going wide here can no
/// longer oversubscribe the machine.
void stft_frames(const std::vector<double>& padded,
                 const std::vector<double>& window,
                 const StftParams& params, std::size_t frames,
                 std::size_t bins, Matrix& out) {
  const RealFftPlan plan(params.n_fft);
  // Keep chunks coarse: at least 8 frames per chunk so scratch setup and
  // scheduling stay negligible against the FFT work.
  const std::size_t chunks = std::clamp<std::size_t>(
      std::min<std::size_t>(util::default_thread_count(), frames / 8), 1,
      frames);
  const std::size_t per_chunk = (frames + chunks - 1) / chunks;

  util::parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * per_chunk;
    const std::size_t end = std::min(begin + per_chunk, frames);
    std::vector<double> frame(params.n_fft);
    std::vector<Complex> scratch(plan.scratch_size());
    std::vector<double> power(bins);
    for (std::size_t f = begin; f < end; ++f) {
      const std::size_t start = f * params.hop;
      for (std::size_t i = 0; i < params.n_fft; ++i)
        frame[i] = padded[start + i] * window[i];
      plan.power(frame.data(), power.data(), scratch.data());
      for (std::size_t b = 0; b < bins; ++b) out(b, f) = power[b];
    }
  });
}

}  // namespace

std::size_t stft_frame_count(std::size_t signal_len, const StftParams& p) {
  const std::size_t padded =
      p.center ? signal_len + p.n_fft : signal_len;
  if (padded < p.n_fft) return 0;
  return (padded - p.n_fft) / p.hop + 1;
}

Matrix stft_power(const std::vector<double>& signal,
                  const StftParams& params) {
  if (!is_power_of_two(params.n_fft))
    throw std::invalid_argument("stft: n_fft must be a power of two");
  if (params.hop == 0) throw std::invalid_argument("stft: hop must be > 0");

  const std::vector<double> padded =
      params.center ? reflect_pad(signal, params.n_fft / 2) : signal;
  const std::size_t frames = stft_frame_count(signal.size(), params);
  const std::size_t bins = params.n_fft / 2 + 1;
  if (frames == 0) throw std::invalid_argument("stft: signal too short");

  const std::vector<double> window = hann_window(params.n_fft);
  Matrix out(bins, frames);
  stft_frames(padded, window, params, frames, bins, out);
  count_frames(frames);
  return out;
}

}  // namespace beesim::dsp
