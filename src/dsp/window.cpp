#include "dsp/window.hpp"

#include <cmath>
#include <numbers>

namespace beesim::dsp {

std::vector<double> hann_window(std::size_t n) {
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Periodic form: denominator n, not n-1 (matches scipy periodic=True).
    w[i] = 0.5 - 0.5 * std::cos(2.0 * std::numbers::pi *
                                static_cast<double>(i) /
                                static_cast<double>(n));
  }
  return w;
}

}  // namespace beesim::dsp
