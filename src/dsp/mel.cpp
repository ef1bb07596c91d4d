#include "dsp/mel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "dsp/simd_kernels.hpp"
#include "obs/catalog.hpp"
#include "util/parallel.hpp"

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
  offset_.reserve(dense.rows() + 1);
  offset_.push_back(0);
  for (std::size_t m = 0; m < dense.rows(); ++m) {
    for (std::size_t b = 0; b < bins_; ++b) {
      // Zero weights of either sign are skipped, as the dense apply does.
      if (dense(m, b) == 0.0) continue;
      bin_.push_back(b);
      weights_.push_back(dense(m, b));
    }
    offset_.push_back(weights_.size());
  }
  if (obs::enabled()) {
    static auto& nnz = obs::registry().gauge(obs::metric::kDspMelBandNnz);
    nnz.set(static_cast<double>(weights_.size()));
  }
}

BandTables BandedFilterbank::tables() const noexcept {
  return {bands(), offset_.data(), bin_.data(), weights_.data()};
}

void BandedFilterbank::apply(const double* power, std::size_t count,
                             double* out, std::size_t stride) const noexcept {
  kernel_table().mel_bands_batch(tables(), power, count, out, stride);
}

namespace {

constexpr double kAmin = 1e-10;

/// librosa.power_to_db's reference: the peak of the whole matrix, at
/// least kAmin. Its max element then maps to 10*log10(ref/ref) = 0 dB
/// exactly, so the dB peak is always 0 and the clamp floor is -top_db,
/// and one elementwise pass suffices.
double db_reference(const Matrix& power, double top_db) {
  if (power.empty()) throw std::invalid_argument("power_to_db: empty");
  if (top_db <= 0.0) throw std::invalid_argument("power_to_db: top_db <= 0");
  return std::max(power.max(), kAmin);
}

double to_db(double p, double ref, double top_db) {
  return std::max(10.0 * std::log10(std::max(p, kAmin) / ref), -top_db);
}

/// body(begin, end) over row ranges of `rows` (>= 1) rows, `per_row`
/// converted elements each, in coarse chunks (at least kMinChunk
/// elements) across the pool. Each element depends only on itself and
/// the reference, so any chunking gives the serial bits.
template <typename Body>
void for_row_chunks(std::size_t rows, std::size_t per_row, const Body& body) {
  constexpr std::size_t kMinChunk = 4096;
  const std::size_t chunks = std::clamp<std::size_t>(
      std::min<std::size_t>(util::default_thread_count(),
                            rows * per_row / kMinChunk),
      1, rows);
  const std::size_t per_chunk = (rows + chunks - 1) / chunks;
  util::parallel_for(chunks, [&](std::size_t c) {
    body(std::min(c * per_chunk, rows), std::min((c + 1) * per_chunk, rows));
  });
}

}  // namespace

Matrix power_to_db(const Matrix& power, double top_db) {
  const double ref = db_reference(power, top_db);
  const std::size_t cols = power.cols();
  Matrix out(power.rows(), cols);
  for_row_chunks(power.rows(), cols, [&](std::size_t begin, std::size_t end) {
    const double* in = power.data();
    double* db = out.data();
    for (std::size_t i = begin * cols; i < end * cols; ++i)
      db[i] = to_db(in[i], ref, top_db);
  });
  return out;
}

void power_to_db_columns(Matrix& power,
                         const std::vector<std::size_t>& columns,
                         double top_db) {
  const double ref = db_reference(power, top_db);
  for (const std::size_t c : columns)
    if (c >= power.cols())
      throw std::out_of_range("power_to_db_columns: column out of range");
  for_row_chunks(power.rows(), columns.size(),
                 [&](std::size_t begin, std::size_t end) {
                   for (std::size_t r = begin; r < end; ++r) {
                     double* row = power.data() + r * power.cols();
                     for (const std::size_t c : columns)
                       row[c] = to_db(row[c], ref, top_db);
                   }
                 });
}

}  // namespace beesim::dsp
