#pragma once

#include <vector>

#include "dsp/matrix.hpp"

namespace beesim::dsp {

/// Short-time Fourier transform parameters; defaults are the paper's
/// spectrogram settings (Section V): n_fft 2048, hop 512.
struct StftParams {
  std::size_t n_fft = 2048;
  std::size_t hop = 512;
  bool center = true;  // reflect-pad by n_fft/2 like librosa
};

/// Power spectrogram |STFT|^2 with a periodic Hann window.
/// Rows: n_fft/2 + 1 frequency bins. Cols: frames.
///
/// One RealFftPlan serves every frame; frames run in contiguous chunks
/// across util::parallel_for with per-chunk scratch and no per-frame
/// allocation, and the result is bit-identical for any chunk count
/// (tests/dsp_oracle.hpp holds the serial frame loop and the naive
/// complex-FFT loop it is checked against). With center=true the signal
/// must be longer than n_fft/2 — shorter signals cannot be reflect-padded
/// and throw std::invalid_argument.
Matrix stft_power(const std::vector<double>& signal,
                  const StftParams& params = StftParams{});

/// Number of frames stft_power produces for a signal of given length.
std::size_t stft_frame_count(std::size_t signal_len, const StftParams& p);

}  // namespace beesim::dsp
