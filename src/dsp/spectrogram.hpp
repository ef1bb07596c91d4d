#pragma once

#include <vector>

#include "dsp/matrix.hpp"
#include "dsp/mel.hpp"
#include "dsp/stft.hpp"

namespace beesim::dsp {

/// End-to-end mel-spectrogram pipeline with the paper's parameters
/// (Section V): sample rate 22050 Hz, FFT window 2048, hop 512, 128 mel
/// bands. Construct once (the FFT tables, Hann window and nonzero weights of
/// the filterbank are built here), then call for each audio sample.
class MelSpectrogram {
 public:
  struct Params {
    double sample_rate = 22050.0;
    std::size_t n_fft = 2048;
    std::size_t hop = 512;
    std::size_t n_mels = 128;
    double fmin = 0.0;
    double fmax = 0.0;  // 0 => sample_rate / 2
  };

  MelSpectrogram();  // paper defaults
  /// Throws std::invalid_argument on hop == 0, a non-power-of-two n_fft
  /// or filterbank parameters mel_filterbank rejects.
  explicit MelSpectrogram(const Params& params);

  /// (n_mels x frames) mel power spectrogram in one pass per batch: the
  /// StftPlan frame loop hands each batch of StftPlan::kBatch frames'
  /// power bins to the banded filterbank, which writes those frames'
  /// columns. No bins x frames power matrix is built. Throws
  /// std::invalid_argument on a signal of n_fft/2 samples or fewer,
  /// before any frame runs.
  Matrix compute(const std::vector<double>& signal) const;

  /// Mel spectrogram in dB, resized to a side x side image and scaled to
  /// [0, 1] — the CNN input of Fig 5. Only the mel columns the resize
  /// reads are converted to dB (power_to_db_columns), with power_to_db's
  /// bits.
  Matrix compute_image(const std::vector<double>& signal,
                       std::size_t side) const;

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  /// n_fft, hop and center=true, with their FFT tables and Hann window.
  StftPlan stft_;
  /// The mel_filterbank(...) of params_, nonzero weights only.
  BandedFilterbank banded_;
};

}  // namespace beesim::dsp
