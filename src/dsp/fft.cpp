#include "dsp/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/simd_kernels.hpp"
#include "obs/catalog.hpp"

namespace beesim::dsp {
namespace {

void count_plan_reuse() {
  if (obs::enabled()) {
    static auto& reuses =
        obs::registry().counter(obs::metric::kDspFftPlanReuses);
    reuses.inc();
  }
}

}  // namespace

// ---------------------------------------------------------------- FftPlan

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_power_of_two(n))
    throw std::invalid_argument("FftPlan: size must be a power of two");
  bitrev_.resize(n);
  std::size_t j = 0;
  bitrev_[0] = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = j;
  }
  // Per-stage twiddles exp(-i 2pi k / len), concatenated; each value is
  // computed directly (no incremental drift) and shared by every butterfly
  // block of its stage. Total n - 1 entries.
  twiddles_.reserve(n > 1 ? n - 1 : 0);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double a = angle * static_cast<double>(k);
      twiddles_.emplace_back(std::cos(a), std::sin(a));
    }
  }
}

void FftPlan::forward(Complex* data) const noexcept {
  count_plan_reuse();
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  // Each stage runs through the dispatched butterfly kernel — one call
  // per stage amortizes the indirect-call overhead over n/2 butterflies.
  const KernelTable& kernels = kernel_table();
  const Complex* tw = twiddles_.data();
  for (std::size_t len = 2; len <= n; len <<= 1) {
    kernels.fft_stage(data, n, len, tw);
    tw += len / 2;
  }
}

void FftPlan::forward(std::vector<Complex>& data) const {
  if (data.size() != n_)
    throw std::invalid_argument("FftPlan::forward: size mismatch");
  forward(data.data());
}

// ------------------------------------------------------------ RealFftPlan

RealFftPlan::RealFftPlan(std::size_t n)
    : n_(n), half_(n >= 2 ? n / 2 : 1) {
  if (!is_power_of_two(n))
    throw std::invalid_argument("RealFftPlan: size must be a power of two");
  // Untangling needs exp(-i 2pi k / n) for k = 1 .. n/4 only, but the
  // table is tiny; store k = 0 .. n/4 for direct indexing.
  post_.reserve(n / 4 + 1);
  for (std::size_t k = 0; k <= n / 4; ++k) {
    const double a =
        -2.0 * std::numbers::pi * static_cast<double>(k) /
        static_cast<double>(n);
    post_.emplace_back(std::cos(a), std::sin(a));
  }
}

void RealFftPlan::transform(const double* in, Complex* out,
                            Complex* scratch) const {
  if (n_ == 1) {
    out[0] = Complex(in[0], 0.0);
    return;
  }
  const std::size_t m = n_ / 2;
  // Pack even samples into the real lane, odd samples into the imaginary
  // lane, and transform the half-size complex sequence.
  for (std::size_t j = 0; j < m; ++j)
    scratch[j] = Complex(in[2 * j], in[2 * j + 1]);
  half_.forward(scratch);

  // Untangle: Z[k] = E[k] + i O[k] with E/O the even/odd half-spectra;
  // X[k] = E[k] + e^{-i2pi k/n} O[k] and X[m-k] = conj(E[k] - w O[k]).
  const Complex z0 = scratch[0];
  out[0] = Complex(z0.real() + z0.imag(), 0.0);
  out[m] = Complex(z0.real() - z0.imag(), 0.0);
  for (std::size_t k = 1; k <= m / 2; ++k) {
    const Complex zk = scratch[k];
    const Complex zc = std::conj(scratch[m - k]);
    const Complex even = 0.5 * (zk + zc);
    const Complex t = post_[k] * (0.5 * (zk - zc));  // w_k * (i O[k])
    const Complex u(t.imag(), -t.real());            // w_k * O[k]
    out[k] = even + u;
    out[m - k] = std::conj(even - u);
  }
}

void RealFftPlan::power(const double* in, double* out_power,
                        Complex* scratch) const {
  if (n_ == 1) {
    out_power[0] = in[0] * in[0];
    return;
  }
  const std::size_t m = n_ / 2;
  for (std::size_t j = 0; j < m; ++j)
    scratch[j] = Complex(in[2 * j], in[2 * j + 1]);
  half_.forward(scratch);

  const Complex z0 = scratch[0];
  const double dc = z0.real() + z0.imag();
  const double nyquist = z0.real() - z0.imag();
  out_power[0] = dc * dc;
  out_power[m] = nyquist * nyquist;
  for (std::size_t k = 1; k <= m / 2; ++k) {
    const Complex zk = scratch[k];
    const Complex zc = std::conj(scratch[m - k]);
    const Complex even = 0.5 * (zk + zc);
    const Complex t = post_[k] * (0.5 * (zk - zc));
    const Complex u(t.imag(), -t.real());
    out_power[k] = std::norm(even + u);
    out_power[m - k] = std::norm(even - u);  // |conj(z)|^2 == |z|^2
  }
}

std::vector<Complex> RealFftPlan::transform(
    const std::vector<double>& in) const {
  if (in.size() != n_)
    throw std::invalid_argument("RealFftPlan::transform: size mismatch");
  std::vector<Complex> scratch(scratch_size());
  std::vector<Complex> out(bins());
  transform(in.data(), out.data(), scratch.data());
  return out;
}

}  // namespace beesim::dsp
