#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace beesim::dsp {

/// Dense row-major matrix of doubles; the carrier for spectrograms and
/// filterbanks. Deliberately minimal — linear algebra lives at call sites
/// where the loop structure is visible for optimization.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& at(std::size_t r, std::size_t c) {
    check(r, c);
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    check(r, c);
    return data_[r * cols_ + c];
  }
  /// Unchecked access for hot loops.
  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  double* data() noexcept { return data_.data(); }
  const double* data() const noexcept { return data_.data(); }
  const std::vector<double>& storage() const noexcept { return data_; }

  double min() const;
  double max() const;

 private:
  void check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_)
      throw std::out_of_range("Matrix: index out of range");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Where a bilinear resize from `in` samples to `out` samples reads
/// along one axis: output index i takes samples lo = floor(i * (in - 1)
/// / (out - 1)) (0 when out is 1) and hi = min(lo + 1, in - 1), with hi
/// weighted by frac. Both lo and hi are read even when frac is 0.
struct BilinearTap {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;
};

/// The `out` taps of one axis; `in` must be at least 1.
std::vector<BilinearTap> bilinear_taps(std::size_t in, std::size_t out);

/// Bilinear resize to (out_rows, out_cols) through bilinear_taps on each
/// axis; used to shrink the 128-band mel spectrogram into the LxL CNN
/// input images of Fig 5. Reads no row or column that no tap names.
Matrix resize_bilinear(const Matrix& src, std::size_t out_rows,
                       std::size_t out_cols);

}  // namespace beesim::dsp
