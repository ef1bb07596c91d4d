#pragma once

#include <vector>

#include "dsp/matrix.hpp"
#include "dsp/mel.hpp"
#include "dsp/stft.hpp"

namespace beesim::dsp {

/// End-to-end mel-spectrogram pipeline with the paper's parameters
/// (Section V): sample rate 22050 Hz, FFT window 2048, hop 512, 128 mel
/// bands. Construct once (the filterbank is precomputed, nonzero spans
/// only), then call for each audio sample.
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
  explicit MelSpectrogram(const Params& params);

  /// (n_mels x frames) mel power spectrogram.
  Matrix compute(const std::vector<double>& signal) const;

  /// Mel spectrogram in dB, resized to a side x side image and scaled to
  /// [0, 1] — the CNN input of Fig 5.
  Matrix compute_image(const std::vector<double>& signal,
                       std::size_t side) const;

  /// Per-mel-band time-mean of the dB spectrogram: the n_mels-dimensional
  /// feature vector fed to the SVM.
  std::vector<double> compute_features(
      const std::vector<double>& signal) const;

  const Params& params() const noexcept { return params_; }

 private:
  Params params_;
  /// The mel_filterbank(...) of params_, nonzero spans only.
  BandedFilterbank banded_;
};

}  // namespace beesim::dsp
