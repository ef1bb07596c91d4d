#include "dsp/mel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "dsp/simd_kernels.hpp"
#include "obs/catalog.hpp"

namespace beesim::dsp {

double hz_to_mel(double hz) noexcept {
  return 2595.0 * std::log10(1.0 + hz / 700.0);
}

double mel_to_hz(double mel) noexcept {
  return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
}

Matrix mel_filterbank(std::size_t n_mels, std::size_t n_fft,
                      double sample_rate, double fmin, double fmax) {
  if (n_mels == 0 || n_fft == 0 || sample_rate <= 0.0)
    throw std::invalid_argument("mel_filterbank: invalid params");
  if (fmax <= 0.0) fmax = sample_rate / 2.0;
  if (fmin < 0.0 || fmin >= fmax)
    throw std::invalid_argument("mel_filterbank: bad fmin/fmax");

  const std::size_t bins = n_fft / 2 + 1;
  // n_mels + 2 anchor frequencies, evenly spaced on the mel axis.
  std::vector<double> anchors_hz(n_mels + 2);
  const double mel_lo = hz_to_mel(fmin);
  const double mel_hi = hz_to_mel(fmax);
  for (std::size_t i = 0; i < anchors_hz.size(); ++i) {
    const double mel = mel_lo + (mel_hi - mel_lo) * static_cast<double>(i) /
                                    static_cast<double>(n_mels + 1);
    anchors_hz[i] = mel_to_hz(mel);
  }

  Matrix fb(n_mels, bins);
  for (std::size_t m = 0; m < n_mels; ++m) {
    const double left = anchors_hz[m];
    const double center = anchors_hz[m + 1];
    const double right = anchors_hz[m + 2];
    for (std::size_t b = 0; b < bins; ++b) {
      const double freq = static_cast<double>(b) * sample_rate /
                          static_cast<double>(n_fft);
      double weight = 0.0;
      if (freq > left && freq < right) {
        weight = freq <= center ? (freq - left) / (center - left)
                                : (right - freq) / (right - center);
      }
      // Slaney-style area normalization keeps band energies comparable.
      fb(m, b) = weight * 2.0 / (right - left);
    }
  }
  return fb;
}

BandedFilterbank::BandedFilterbank(const Matrix& dense) : bins_(dense.cols()) {
  if (dense.empty())
    throw std::invalid_argument("BandedFilterbank: empty filterbank");
  first_.reserve(dense.rows());
  offset_.reserve(dense.rows() + 1);
  offset_.push_back(0);
  for (std::size_t m = 0; m < dense.rows(); ++m) {
    std::size_t first = bins_;
    std::size_t last = 0;
    for (std::size_t b = 0; b < bins_; ++b) {
      if (dense(m, b) != 0.0) {
        if (first == bins_) first = b;
        last = b;
      }
    }
    if (first == bins_) first = 0;  // all-zero band: empty range
    else {
      for (std::size_t b = first; b <= last; ++b)
        weights_.push_back(dense(m, b));
    }
    first_.push_back(first);
    offset_.push_back(weights_.size());
  }
  if (obs::enabled()) {
    static auto& nnz = obs::registry().gauge(obs::metric::kDspMelBandNnz);
    nnz.set(static_cast<double>(weights_.size()));
  }
}

Matrix BandedFilterbank::apply(const Matrix& power) const {
  if (bins_ != power.rows())
    throw std::invalid_argument(
        "BandedFilterbank::apply: filterbank bins != spectrum bins");
  Matrix out(bands(), power.cols());
  const std::size_t frames = power.cols();
  const KernelTable& kernels = kernel_table();
  for (std::size_t m = 0; m < bands(); ++m) {
    const std::size_t first = first_[m];
    const std::size_t count = offset_[m + 1] - offset_[m];
    const double* w = weights_.data() + offset_[m];
    double* out_row = out.data() + m * frames;
    for (std::size_t j = 0; j < count; ++j) {
      // Triangular bands have no interior zeros, but skip them anyway so
      // the accumulation order matches the dense apply (skip zero
      // weights, bins ascending) bit for bit on any input matrix. The row
      // update dispatches to the SIMD axpy kernel — same per-element
      // mul/add order under every tier.
      if (w[j] == 0.0) continue;
      const double* in_row = power.data() + (first + j) * frames;
      kernels.axpy(w[j], in_row, out_row, frames);
    }
  }
  return out;
}

Matrix power_to_db(const Matrix& power, double top_db) {
  if (power.empty()) throw std::invalid_argument("power_to_db: empty");
  if (top_db <= 0.0) throw std::invalid_argument("power_to_db: top_db <= 0");
  constexpr double kAmin = 1e-10;
  const double ref = std::max(power.max(), kAmin);
  // The max element maps to 10*log10(ref/ref) = 0 dB exactly, so the dB
  // peak is always 0 and the clamp floor is -top_db; one fused pass
  // replaces the old compute-then-rescan-for-peak-then-clamp sequence
  // (equivalence-tested against it in test_dsp_kernels).
  Matrix out(power.rows(), power.cols());
  for (std::size_t r = 0; r < power.rows(); ++r)
    for (std::size_t c = 0; c < power.cols(); ++c) {
      const double db =
          10.0 * std::log10(std::max(power(r, c), kAmin) / ref);
      out(r, c) = std::max(db, -top_db);
    }
  return out;
}

}  // namespace beesim::dsp
