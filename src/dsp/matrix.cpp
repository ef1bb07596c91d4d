#include "dsp/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace beesim::dsp {

double Matrix::min() const {
  if (data_.empty()) throw std::logic_error("Matrix::min: empty");
  return *std::min_element(data_.begin(), data_.end());
}

double Matrix::max() const {
  if (data_.empty()) throw std::logic_error("Matrix::max: empty");
  return *std::max_element(data_.begin(), data_.end());
}

std::vector<BilinearTap> bilinear_taps(std::size_t in, std::size_t out) {
  const double scale =
      out > 1 ? static_cast<double>(in - 1) / static_cast<double>(out - 1)
              : 0.0;
  std::vector<BilinearTap> taps(out);
  for (std::size_t i = 0; i < out; ++i) {
    const double s = static_cast<double>(i) * scale;
    const auto lo = static_cast<std::size_t>(s);
    taps[i] = {lo, std::min(lo + 1, in - 1), s - static_cast<double>(lo)};
  }
  return taps;
}

Matrix resize_bilinear(const Matrix& src, std::size_t out_rows,
                       std::size_t out_cols) {
  if (src.empty() || out_rows == 0 || out_cols == 0)
    throw std::invalid_argument("resize_bilinear: empty input or output");
  const std::vector<BilinearTap> rows = bilinear_taps(src.rows(), out_rows);
  const std::vector<BilinearTap> cols = bilinear_taps(src.cols(), out_cols);
  Matrix dst(out_rows, out_cols);
  for (std::size_t r = 0; r < out_rows; ++r) {
    const BilinearTap& y = rows[r];
    for (std::size_t c = 0; c < out_cols; ++c) {
      const BilinearTap& x = cols[c];
      const double top =
          src(y.lo, x.lo) * (1.0 - x.frac) + src(y.lo, x.hi) * x.frac;
      const double bot =
          src(y.hi, x.lo) * (1.0 - x.frac) + src(y.hi, x.hi) * x.frac;
      dst(r, c) = top * (1.0 - y.frac) + bot * y.frac;
    }
  }
  return dst;
}

}  // namespace beesim::dsp
