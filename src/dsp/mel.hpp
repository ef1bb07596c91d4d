#pragma once

#include <cstddef>
#include <vector>

#include "dsp/matrix.hpp"
#include "dsp/simd_kernels.hpp"

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

/// Sparse form of a filterbank: per band, its nonzero weights and their
/// bins, ascending. Built once per MelSpectrogram; apply() maps one
/// StftPlan batch of up to StftPlan::kBatch frames onto their mel bands,
/// touching only the nonzero bins. Each triangular band is nonzero on a
/// narrow bin range, so the dense matrix is >90% zeros. apply() is
/// bit-identical to the dense bin-by-bin apply (the oracle in
/// tests/dsp_oracle.hpp): per band and frame, zero weights skipped, bins
/// ascending, a separate multiply and add into an accumulator that
/// starts at 0. The batch's frames are the lanes of the dispatched
/// mel_bands_batch kernel, one vector add chain per band and lane group.
class BandedFilterbank {
 public:
  explicit BandedFilterbank(const Matrix& dense);

  std::size_t bands() const noexcept { return offset_.size() - 1; }
  std::size_t bins() const noexcept { return bins_; }
  /// Stored (nonzero) weight count across all bands.
  std::size_t nonzeros() const noexcept { return weights_.size(); }

  /// The weights as kernel_table().mel_bands_batch reads them. They
  /// point into this filterbank.
  BandTables tables() const noexcept;

  /// out[m * stride + l] = band m of frame l of a batch, for m < bands()
  /// and l < count (1 .. StftPlan::kBatch). The batch is laid out as
  /// StftPlan hands it over: bin b of frame l at power[kBatch * b + l],
  /// for all kBatch lanes. A stride of the frame count writes `count`
  /// adjacent columns of a (bands x frames) row-major matrix.
  void apply(const double* power, std::size_t count, double* out,
             std::size_t stride) const noexcept;

 private:
  std::size_t bins_ = 0;
  std::vector<std::size_t> offset_;  // bands() + 1 offsets into the two below
  std::vector<std::size_t> bin_;     // the bin of each stored weight
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
