#pragma once

#include <cstddef>
#include <vector>

#include "dsp/matrix.hpp"

namespace beesim::dsp {

/// Frequency (Hz) to mel scale, HTK formula (librosa htk=True variant is
/// close enough to Slaney's for this task; the classifier only needs a
/// consistent warping).
double hz_to_mel(double hz) noexcept;
double mel_to_hz(double mel) noexcept;

/// Triangular mel filterbank: n_mels rows x (n_fft/2 + 1) cols, mapping a
/// power spectrum onto mel bands. fmin/fmax bound the filter placement.
Matrix mel_filterbank(std::size_t n_mels, std::size_t n_fft,
                      double sample_rate, double fmin = 0.0,
                      double fmax = 0.0 /* 0 => sample_rate/2 */);

/// Sparse (banded) form of a triangular filterbank: per band, the first
/// nonzero bin and the packed weights up to the last nonzero bin. Built
/// once per MelSpectrogram; apply() maps one frame's power bins onto its
/// mel bands, touching only the nonzero bins. Each triangular band is
/// nonzero on a narrow bin range, so the dense matrix is >90% zeros.
/// apply() is bit-identical to the dense bin-by-bin apply (the oracle in
/// tests/dsp_oracle.hpp): per band, zero weights skipped, bins ascending,
/// a separate multiply and add into an accumulator that starts at 0.
class BandedFilterbank {
 public:
  explicit BandedFilterbank(const Matrix& dense);

  std::size_t bands() const noexcept { return first_.size(); }
  std::size_t bins() const noexcept { return bins_; }
  /// Stored (nonzero-range) weight count across all bands.
  std::size_t nonzeros() const noexcept { return weights_.size(); }

  /// out[m * stride] = band m of the frame power[0..bins()), for
  /// m < bands(). A stride of the frame count writes one column of a
  /// (bands x frames) row-major matrix.
  void apply(const double* power, double* out,
             std::size_t stride) const noexcept;

 private:
  std::size_t bins_ = 0;
  std::vector<std::size_t> first_;    // first nonzero bin per band
  std::vector<std::size_t> offset_;   // bands() + 1 offsets into weights_
  std::vector<double> weights_;
};

/// Converts a power matrix to decibels relative to its maximum, with an
/// 80 dB floor (librosa.power_to_db defaults). Since the reference is the
/// matrix maximum, the dB peak is exactly 0 and the floor is -top_db.
/// The peak is one serial max; the elementwise log/clamp pass then runs
/// in row chunks across util::parallel_for, so any chunking gives the
/// same bits.
Matrix power_to_db(const Matrix& power, double top_db = 80.0);

/// power_to_db in place on the listed columns only (each < cols()); the
/// other columns keep their power values. The reference is still the
/// peak of the whole matrix, so each converted element has
/// power_to_db's bits. MelSpectrogram::compute_image converts only the
/// columns its bilinear resize reads. Throws std::out_of_range on a
/// column past the end, before any element changes.
void power_to_db_columns(Matrix& power,
                         const std::vector<std::size_t>& columns,
                         double top_db = 80.0);

}  // namespace beesim::dsp
