#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace beesim::dsp {

using Complex = std::complex<double>;

/// True if n is a power of two (and nonzero).
constexpr bool is_power_of_two(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Precomputed forward complex FFT of a fixed power-of-two size:
/// iterative radix-2 Cooley-Tukey with the e^{-i2pi/N} convention
/// (matching numpy/librosa), bit-reversal permutation plus exact
/// per-stage twiddle tables, built once and reused for every transform
/// (the oracle, whose twiddles drift by repeated multiplication, is in
/// tests/dsp_oracle.hpp). The plan is immutable after construction, so
/// one plan can serve many threads concurrently; forward() does no heap
/// allocation.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// In-place forward transform of exactly size() elements.
  void forward(Complex* data) const noexcept;
  void forward(std::vector<Complex>& data) const;

 private:
  std::size_t n_;
  std::vector<std::size_t> bitrev_;  // permutation: i -> reversed(i)
  std::vector<Complex> twiddles_;    // stages concatenated, n_ - 1 entries
};

/// Real-input forward FFT of a fixed power-of-two size N: packs the N
/// real samples into an N/2 complex sequence, runs an N/2 complex FFT
/// through an FftPlan, and untangles the even/odd spectra with a
/// precomputed e^{-i2pi k/N} post-processing table. ~2x the work saved
/// versus transforming the real signal as N complex points, on top of
/// the table-lookup twiddles. Thread-safe: callers pass their own
/// scratch buffer (scratch_size() complex values), so one plan serves
/// every frame of a parallel STFT.
class RealFftPlan {
 public:
  explicit RealFftPlan(std::size_t n);

  std::size_t size() const noexcept { return n_; }
  std::size_t bins() const noexcept { return n_ / 2 + 1; }
  std::size_t scratch_size() const noexcept { return n_ / 2; }

  /// out[0..bins()) = the half spectrum of in[0..size()) (numpy.fft.rfft);
  /// scratch holds scratch_size() elements (unused for n == 1). No heap
  /// allocation.
  void transform(const double* in, Complex* out, Complex* scratch) const;

  /// |transform(in)|^2 into out_power[0..bins()) — the STFT inner loop.
  void power(const double* in, double* out_power, Complex* scratch) const;

  /// Convenience allocating form (tests, one-off callers).
  std::vector<Complex> transform(const std::vector<double>& in) const;

 private:
  std::size_t n_;
  FftPlan half_;               // complex plan of size n/2 (n >= 2)
  std::vector<Complex> post_;  // e^{-i2pi k/n}, k = 0 .. n/4
};

}  // namespace beesim::dsp
