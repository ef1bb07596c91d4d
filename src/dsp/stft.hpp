#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "dsp/matrix.hpp"
#include "dsp/simd_kernels.hpp"

namespace beesim::dsp {

/// True if n is a power of two (and nonzero).
constexpr bool is_power_of_two(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Short-time Fourier transform parameters; defaults are the paper's
/// spectrogram settings (Section V): n_fft 2048, hop 512.
struct StftParams {
  std::size_t n_fft = 2048;
  std::size_t hop = 512;
  bool center = true;  // reflect-pad by n_fft/2 like librosa
};

/// A checked StftParams with its periodic Hann window and real-FFT tables
/// (bit reversal, exact per-stage twiddles, the untangle's e^{-i2pi k/N}),
/// built once. for_each_frame() is the one STFT frame loop in src/:
/// stft_power writes its batches into columns, MelSpectrogram maps each
/// batch straight onto its mel bands. Immutable after construction, so
/// one StftPlan serves concurrent calls.
class StftPlan {
 public:
  /// Frames per batch: one per lane of the stft_power_batch kernel. The
  /// kernels, stft_scratch_size, the frame loop and the sinks all read
  /// this one constant.
  static constexpr std::size_t kBatch = 8;

  /// Throws std::invalid_argument on hop == 0 or a non-power-of-two
  /// n_fft.
  explicit StftPlan(const StftParams& params);

  const StftParams& params() const noexcept { return params_; }
  /// Power bins per frame: n_fft/2 + 1.
  std::size_t bins() const noexcept { return params_.n_fft / 2 + 1; }

  /// Frames a signal of this length yields. Throws std::invalid_argument
  /// when it yields none: with center=true the signal must be longer than
  /// n_fft/2 (shorter ones cannot be reflect-padded), without it at
  /// least n_fft long.
  std::size_t frames(std::size_t signal_len) const;

  /// The window and FFT tables as kernel_table().stft_power_batch reads
  /// them.
  /// They point into this plan.
  StftTables tables() const noexcept;

  /// Receives the frames [first, first + count) of one batch, count in
  /// 1 .. kBatch: the power of bin b of frame first + l is
  /// power[kBatch * b + l]. Called once per batch, concurrently for
  /// different batches.
  using BatchSink = std::function<void(std::size_t first, std::size_t count,
                                       const double* power)>;

  /// |STFT|^2 of every frame of the signal, handed to sink kBatch
  /// adjacent frames at a time. Frames run in fixed chunks of 16 (two
  /// batches) across util::parallel_for with per-chunk scratch and no
  /// per-frame allocation; each batch is one stft_power_batch call, and
  /// a short last batch repeats its last frame in the spare lanes, which
  /// the sink does not see. Frames inside the signal are read in place; only
  /// frames that overlap the n_fft/2 reflect pad are copied out with
  /// their indices mapped, so no padded copy is made. Each lane's bits
  /// are independent of the batching and chunking, hence bit-identical
  /// to the serial per-frame loop (tests/dsp_oracle.hpp). Adds the frame
  /// count to dsp.stft.frames and dsp.fft.plan_reuses once. Throws as
  /// frames() does, before any frame runs.
  void for_each_frame(const std::vector<double>& signal,
                      const BatchSink& sink) const;

 private:
  StftParams params_;
  std::vector<double> window_;
  std::vector<std::size_t> bitrev_;
  std::vector<double> twiddle_re_, twiddle_im_;
  std::vector<double> post_re_, post_im_;
};

/// The stft_power_batch scratch doubles for one n_fft: kBatch lanes of
/// n_fft/2 + 1 real parts (then the power) and n_fft/2 imaginary parts.
constexpr std::size_t stft_scratch_size(std::size_t n_fft) noexcept {
  return StftPlan::kBatch * (n_fft + 1);
}

/// Power spectrogram |STFT|^2 with a periodic Hann window.
/// Rows: n_fft/2 + 1 frequency bins. Cols: frames. Builds an StftPlan per
/// call and writes its batches into columns; throws as StftPlan does.
Matrix stft_power(const std::vector<double>& signal,
                  const StftParams& params = StftParams{});

/// Number of frames stft_power produces for a signal of given length.
std::size_t stft_frame_count(std::size_t signal_len, const StftParams& p);

}  // namespace beesim::dsp
