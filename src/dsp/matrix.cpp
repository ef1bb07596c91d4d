#include "dsp/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace beesim::dsp {

namespace {

/// The element std::max_element (greater = std::less) or std::min_element
/// (std::greater) returns, bit for bit, from four running extremes that
/// break the scan's dependent compare chain. A NaN never replaces a
/// running extreme (every compare with it is false), so in both scans a
/// NaN is the answer only as the first element, which then fills every
/// lane. Otherwise the extreme value is unique up to the sign of zero: a
/// nonzero extreme is the answer, and for a zero one the first zero of
/// either sign is, as in the std:: scan.
template <typename Before>
double first_extreme(const std::vector<double>& v, Before before) {
  const double* p = v.data();
  const std::size_t n = v.size();
  double lane[4] = {p[0], p[0], p[0], p[0]};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    for (std::size_t l = 0; l < 4; ++l)
      lane[l] = before(lane[l], p[i + l]) ? p[i + l] : lane[l];
  for (; i < n; ++i) lane[0] = before(lane[0], p[i]) ? p[i] : lane[0];
  double best = lane[0];
  for (std::size_t l = 1; l < 4; ++l)
    best = before(best, lane[l]) ? lane[l] : best;
  if (best != 0.0) return best;  // a NaN too
  return *std::find(v.begin(), v.end(), 0.0);
}

}  // namespace

double Matrix::min() const {
  if (data_.empty()) throw std::logic_error("Matrix::min: empty");
  return first_extreme(data_, std::greater<>());
}

double Matrix::max() const {
  if (data_.empty()) throw std::logic_error("Matrix::max: empty");
  return first_extreme(data_, std::less<>());
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
