#pragma once

#include <functional>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/matrix.hpp"

namespace beesim::dsp {

/// Short-time Fourier transform parameters; defaults are the paper's
/// spectrogram settings (Section V): n_fft 2048, hop 512.
struct StftParams {
  std::size_t n_fft = 2048;
  std::size_t hop = 512;
  bool center = true;  // reflect-pad by n_fft/2 like librosa
};

/// A checked StftParams with its RealFftPlan and periodic Hann window,
/// built once. for_each_frame() is the one STFT frame loop in src/:
/// stft_power writes its frames into columns, MelSpectrogram maps each
/// frame straight onto its mel bands. Immutable after construction, so
/// one StftPlan serves concurrent calls.
class StftPlan {
 public:
  /// Throws std::invalid_argument on hop == 0 or a non-power-of-two
  /// n_fft.
  explicit StftPlan(const StftParams& params);

  const StftParams& params() const noexcept { return params_; }
  /// Power bins per frame: n_fft/2 + 1.
  std::size_t bins() const noexcept { return plan_.bins(); }

  /// Frames a signal of this length yields. Throws std::invalid_argument
  /// when it yields none: with center=true the signal must be longer than
  /// n_fft/2 (shorter ones cannot be reflect-padded), without it at
  /// least n_fft long.
  std::size_t frames(std::size_t signal_len) const;

  /// Receives frame f's bins() power values. Called once per frame,
  /// concurrently for different frames.
  using FrameSink = std::function<void(std::size_t f, const double* power)>;

  /// |STFT|^2 of every frame of the signal, handed to sink. Frames run in
  /// fixed chunks of 16 across util::parallel_for with per-chunk scratch
  /// and no per-frame allocation. Each frame is windowed straight from
  /// the signal; only frames that overlap the n_fft/2 reflect pad map
  /// their indices, so no padded copy is made. Every frame's values are
  /// independent of the chunking, hence bit-identical to the serial
  /// frame loop (tests/dsp_oracle.hpp). Adds the frame count to
  /// dsp.stft.frames once. Throws as frames() does, before any frame
  /// runs.
  void for_each_frame(const std::vector<double>& signal,
                      const FrameSink& sink) const;

 private:
  StftParams params_;
  RealFftPlan plan_;
  std::vector<double> window_;
};

/// Power spectrogram |STFT|^2 with a periodic Hann window.
/// Rows: n_fft/2 + 1 frequency bins. Cols: frames. Builds an StftPlan per
/// call and writes its frames into columns; throws as StftPlan does.
Matrix stft_power(const std::vector<double>& signal,
                  const StftParams& params = StftParams{});

/// Number of frames stft_power produces for a signal of given length.
std::size_t stft_frame_count(std::size_t signal_len, const StftParams& p);

}  // namespace beesim::dsp
