#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "dsp/matrix.hpp"
#include "dsp/mel.hpp"
#include "dsp/spectrogram.hpp"
#include "dsp/stft.hpp"
#include "dsp/window.hpp"
#include "util/rng.hpp"

namespace dsp = beesim::dsp;

// ---------------------------------------------------------------------- FFT
// Properties of the one FFT in src/, the batched real FFT behind
// dsp::StftPlan, read through one frame of its power: center off and a
// hop of n_fft, so the frame is the whole signal under the periodic Hann
// window. test_dsp_kernels.cpp pins its bits to the per-frame planned
// FFT (tests/dsp_oracle.hpp) and that one to the naive FFT; test_simd.cpp
// pins every dispatch tier to the scalar one.

namespace {

/// |rfft(hann * x)|^2, the n/2 + 1 bins of one frame of x.size() samples.
std::vector<double> frame_power(const std::vector<double>& x) {
  dsp::StftParams p;
  p.n_fft = x.size();
  p.hop = x.size();
  p.center = false;
  const dsp::Matrix power = dsp::stft_power(x, p);
  EXPECT_EQ(power.cols(), 1u);
  std::vector<double> column(power.rows());
  for (std::size_t b = 0; b < column.size(); ++b) column[b] = power(b, 0);
  return column;
}

std::vector<double> cosine(std::size_t n, std::size_t bin) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::cos(2.0 * std::numbers::pi * static_cast<double>(bin * i) /
                    static_cast<double>(n));
  return x;
}

}  // namespace

TEST(Fft, DeltaHasFlatSpectrum) {
  // A delta at the window's peak (weight 1) has |X_k| = 1 in every bin.
  std::vector<double> x(8, 0.0);
  x[4] = 1.0;
  const auto power = frame_power(x);
  ASSERT_EQ(power.size(), 5u);
  for (const double v : power) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Fft, ConstantSignalConcentratesAtDc) {
  // A constant leaves the window's own spectrum: n/2 at DC, -n/4 in the
  // next bin and nothing above it.
  const std::size_t n = 16;
  const auto power = frame_power(std::vector<double>(n, 1.0));
  EXPECT_NEAR(power[0], 64.0, 1e-12);
  EXPECT_NEAR(power[1], 16.0, 1e-12);
  for (std::size_t b = 2; b < power.size(); ++b)
    EXPECT_NEAR(power[b], 0.0, 1e-12) << "bin " << b;
}

TEST(Fft, PureToneLandsInCorrectBin) {
  // A cosine in bin 19 under the Hann window: amplitude n/4 in its bin,
  // n/8 in each neighbour, nothing further out.
  const std::size_t n = 256;
  const std::size_t bin = 19;
  const auto power = frame_power(cosine(n, bin));
  EXPECT_NEAR(power[bin], 64.0 * 64.0, 1e-8);
  EXPECT_NEAR(power[bin - 1], 32.0 * 32.0, 1e-8);
  EXPECT_NEAR(power[bin + 1], 32.0 * 32.0, 1e-8);
  EXPECT_NEAR(power[bin - 3], 0.0, 1e-8);
}

TEST(Fft, ParsevalHolds) {
  // The half spectrum stands for the whole: DC and Nyquist once, every
  // other bin twice, sum n times the windowed signal's energy.
  beesim::util::Rng rng(5);
  const std::size_t n = 64;
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal();
  const auto window = dsp::hann_window(n);
  double time_energy = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    time_energy += (x[i] * window[i]) * (x[i] * window[i]);
  const auto power = frame_power(x);
  double freq_energy = power.front() + power.back();
  for (std::size_t b = 1; b + 1 < power.size(); ++b)
    freq_energy += 2.0 * power[b];
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-9);
}

TEST(Fft, LinearityProperty) {
  beesim::util::Rng rng(6);
  const std::size_t n = 32;
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal();
  const auto power = frame_power(x);
  // Scaling by 2 is exact in every operation, so every bin's power is
  // exactly 4 times; by 3 it is 9 times up to rounding.
  std::vector<double> twice(n), thrice(n);
  for (std::size_t i = 0; i < n; ++i) {
    twice[i] = 2.0 * x[i];
    thrice[i] = 3.0 * x[i];
  }
  const auto power2 = frame_power(twice);
  const auto power3 = frame_power(thrice);
  for (std::size_t b = 0; b < power.size(); ++b) {
    EXPECT_EQ(power2[b], 4.0 * power[b]) << "bin " << b;
    EXPECT_NEAR(power3[b], 9.0 * power[b], 1e-12 * (1.0 + 9.0 * power[b]))
        << "bin " << b;
  }
  // Tones whose windowed bins do not meet add their powers.
  const std::size_t m = 256;
  const auto a = cosine(m, 10);
  const auto b = cosine(m, 40);
  std::vector<double> sum(m);
  for (std::size_t i = 0; i < m; ++i) sum[i] = a[i] + 2.0 * b[i];
  const auto pa = frame_power(a);
  const auto pb = frame_power(b);
  const auto psum = frame_power(sum);
  for (std::size_t k = 0; k < psum.size(); ++k)
    EXPECT_NEAR(psum[k], pa[k] + 4.0 * pb[k], 1e-8) << "bin " << k;
}

TEST(Fft, RejectsNonPowerOfTwo) {
  for (const std::size_t n_fft : {0u, 12u, 1000u}) {
    dsp::StftParams p;
    p.n_fft = n_fft;
    EXPECT_THROW(dsp::StftPlan{p}, std::invalid_argument) << n_fft;
  }
}

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(dsp::is_power_of_two(1));
  EXPECT_TRUE(dsp::is_power_of_two(1024));
  EXPECT_FALSE(dsp::is_power_of_two(0));
  EXPECT_FALSE(dsp::is_power_of_two(12));
}

// ------------------------------------------------------------------ Windows

TEST(Window, HannEndpointsAndPeak) {
  const auto w = dsp::hann_window(8);
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  EXPECT_NEAR(w[4], 1.0, 1e-12);  // periodic form peaks at n/2
}

// ------------------------------------------------------------------- Matrix

TEST(Matrix, BoundsCheckedAccess) {
  dsp::Matrix m(2, 3, 1.5);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 3), std::out_of_range);
}

TEST(Matrix, ResizeBilinearPreservesConstant) {
  dsp::Matrix m(5, 7, 3.0);
  const auto r = dsp::resize_bilinear(m, 11, 13);
  EXPECT_EQ(r.rows(), 11u);
  EXPECT_EQ(r.cols(), 13u);
  for (std::size_t i = 0; i < r.rows(); ++i)
    for (std::size_t j = 0; j < r.cols(); ++j)
      EXPECT_NEAR(r(i, j), 3.0, 1e-12);
}

TEST(Matrix, ResizeBilinearInterpolatesGradient) {
  dsp::Matrix m(2, 2);
  m(0, 0) = 0.0;
  m(0, 1) = 1.0;
  m(1, 0) = 0.0;
  m(1, 1) = 1.0;
  const auto r = dsp::resize_bilinear(m, 3, 3);
  EXPECT_NEAR(r(1, 1), 0.5, 1e-12);  // midpoint of the gradient
  EXPECT_NEAR(r(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(r(2, 2), 1.0, 1e-12);
}

TEST(Matrix, ResizePreservesValueRange) {
  beesim::util::Rng rng(7);
  dsp::Matrix m(16, 16);
  for (std::size_t i = 0; i < 16; ++i)
    for (std::size_t j = 0; j < 16; ++j) m(i, j) = rng.uniform(-5.0, 5.0);
  const auto r = dsp::resize_bilinear(m, 40, 9);
  EXPECT_GE(r.min(), m.min() - 1e-12);
  EXPECT_LE(r.max(), m.max() + 1e-12);
}

TEST(Matrix, PeakScanMatchesStdBitForBit) {
  // max() and min() must return std::max_element's and std::min_element's
  // element bit for bit: the first zero of either sign when the extreme
  // is zero, and wherever NaNs sit (the answer only when first).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  beesim::util::Rng rng(8);
  std::vector<std::vector<double>> cases = {
      {nan, 1.0, 2.0, -3.0, 0.5},
      {1.0, nan, 2.0, -3.0, 0.5, 7.0, -1.0, 4.0, 6.0},
      {1.0, 2.0, -3.0, 0.5, 7.0, -1.0, 4.0, 6.0, nan},
      {-1.0, nan, -0.0, 0.0, -2.0, nan, 0.0},
      {nan, 0.0, -0.0, nan, 5.0, -5.0},
      {-1.0, -0.0, -2.0, 0.0, -5.0, 0.0, -0.0},
      {1.0, 0.0, 2.0, -0.0, 5.0, -0.0, 0.0},
      {-0.0, 0.0},
      {0.0, -0.0, 0.0, -0.0, 0.0},
      {1.0, inf, -inf, 3.0, inf, -inf},
      {-inf, -inf},
      {tiny, -tiny, 0.0, -0.0},
      {42.0},
      {-0.0},
      {nan},
  };
  for (std::size_t len = 1; len <= 9; ++len) {
    std::vector<double> v(len);
    for (auto& x : v) x = rng.uniform() < 0.3 ? 0.0 : rng.normal();
    cases.push_back(v);
  }
  std::vector<double> large(128 * 431);
  for (auto& x : large) x = rng.uniform(0.0, 1e3);
  large[5000] = 2e3;
  large[60] = -1.0;
  cases.push_back(large);
  large[9] = nan;
  cases.push_back(large);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& v = cases[i];
    dsp::Matrix m(1, v.size());
    std::copy(v.begin(), v.end(), m.data());
    EXPECT_EQ(bits(m.max()), bits(*std::max_element(v.begin(), v.end())))
        << "case " << i;
    EXPECT_EQ(bits(m.min()), bits(*std::min_element(v.begin(), v.end())))
        << "case " << i;
  }
  EXPECT_THROW(dsp::Matrix().max(), std::logic_error);
  EXPECT_THROW(dsp::Matrix(0, 3).min(), std::logic_error);
}

// --------------------------------------------------------------------- STFT

TEST(Stft, FrameCountMatchesLibrosaFormula) {
  dsp::StftParams p;
  p.n_fft = 2048;
  p.hop = 512;
  // librosa with center=true: 1 + floor(len/hop).
  EXPECT_EQ(dsp::stft_frame_count(22050, p), 1 + 22050 / 512);
}

TEST(Stft, ToneConcentratesEnergyInMatchingBin) {
  const double sr = 22050.0;
  const double freq = 440.0;
  std::vector<double> x(8192);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(2.0 * std::numbers::pi * freq * static_cast<double>(i) /
                    sr);
  dsp::StftParams p;
  p.n_fft = 2048;
  p.hop = 512;
  const auto power = dsp::stft_power(x, p);
  // Find the peak bin of a middle frame.
  const std::size_t frame = power.cols() / 2;
  std::size_t peak = 0;
  for (std::size_t b = 1; b < power.rows(); ++b)
    if (power(b, frame) > power(peak, frame)) peak = b;
  const double expected_bin = freq * 2048.0 / sr;  // ~40.9
  EXPECT_NEAR(static_cast<double>(peak), expected_bin, 1.5);
}

TEST(Stft, SilenceGivesZeroPower) {
  std::vector<double> x(4096, 0.0);
  const auto power = dsp::stft_power(x);
  EXPECT_NEAR(power.max(), 0.0, 1e-18);
}

TEST(Stft, RejectsBadParams) {
  std::vector<double> x(4096, 0.0);
  dsp::StftParams p;
  p.n_fft = 1000;  // not a power of two
  EXPECT_THROW(dsp::stft_power(x, p), std::invalid_argument);
  p.n_fft = 2048;
  p.hop = 0;
  EXPECT_THROW(dsp::stft_power(x, p), std::invalid_argument);
}

// ---------------------------------------------------------------------- Mel

TEST(Mel, HzMelRoundTrip) {
  for (double hz : {100.0, 440.0, 1000.0, 8000.0})
    EXPECT_NEAR(dsp::mel_to_hz(dsp::hz_to_mel(hz)), hz, 1e-6);
}

TEST(Mel, MelScaleIsMonotone) {
  double prev = -1.0;
  for (double hz = 0.0; hz <= 11025.0; hz += 500.0) {
    const double mel = dsp::hz_to_mel(hz);
    EXPECT_GT(mel, prev);
    prev = mel;
  }
}

TEST(Mel, FilterbankShapeAndCoverage) {
  const auto fb = dsp::mel_filterbank(128, 2048, 22050.0);
  EXPECT_EQ(fb.rows(), 128u);
  EXPECT_EQ(fb.cols(), 1025u);
  // Every band has some weight; weights are non-negative.
  for (std::size_t m = 0; m < fb.rows(); ++m) {
    double sum = 0.0;
    for (std::size_t b = 0; b < fb.cols(); ++b) {
      EXPECT_GE(fb(m, b), 0.0);
      sum += fb(m, b);
    }
    EXPECT_GT(sum, 0.0) << "empty mel band " << m;
  }
}

TEST(Mel, FilterbankPeaksMoveUpward) {
  const auto fb = dsp::mel_filterbank(32, 2048, 22050.0);
  std::size_t prev_peak = 0;
  for (std::size_t m = 0; m < fb.rows(); ++m) {
    std::size_t peak = 0;
    for (std::size_t b = 1; b < fb.cols(); ++b)
      if (fb(m, b) > fb(m, peak)) peak = b;
    EXPECT_GE(peak, prev_peak);
    prev_peak = peak;
  }
}

TEST(Mel, ApplyFilterbankDimensions) {
  const dsp::BandedFilterbank fb(dsp::mel_filterbank(16, 256, 22050.0));
  EXPECT_EQ(fb.bands(), 16u);
  EXPECT_EQ(fb.bins(), 129u);
  // A batch of 129 bins x kBatch lanes with two frames in it fills
  // columns 3 and 4 of a 16 x 12 mel matrix (stride 12) and leaves every
  // other column alone; a full batch then fills columns 4 to 11.
  constexpr std::size_t kBatch = dsp::StftPlan::kBatch;
  const std::vector<double> power(kBatch * fb.bins(), 1.0);
  dsp::Matrix mel(16, 4 + kBatch, -1.0);
  fb.apply(power.data(), 2, mel.data() + 3, mel.cols());
  for (std::size_t m = 0; m < mel.rows(); ++m)
    for (std::size_t f = 0; f < mel.cols(); ++f) {
      if (f == 3 || f == 4) EXPECT_GT(mel(m, f), 0.0) << "band " << m;
      else EXPECT_EQ(mel(m, f), -1.0) << "band " << m << " frame " << f;
    }
  fb.apply(power.data(), kBatch, mel.data() + 4, mel.cols());
  for (std::size_t m = 0; m < mel.rows(); ++m)
    for (std::size_t f = 0; f < mel.cols(); ++f) {
      if (f >= 3) EXPECT_GT(mel(m, f), 0.0) << "band " << m << " frame " << f;
      else EXPECT_EQ(mel(m, f), -1.0) << "band " << m << " frame " << f;
    }
}

TEST(Mel, PowerToDbRangeAndFloor) {
  dsp::Matrix power(2, 2);
  power(0, 0) = 1.0;
  power(0, 1) = 0.1;
  power(1, 0) = 1e-12;  // far below the floor
  power(1, 1) = 0.5;
  const auto db = dsp::power_to_db(power, 80.0);
  EXPECT_NEAR(db(0, 0), 0.0, 1e-9);        // reference = max
  EXPECT_NEAR(db(0, 1), -10.0, 1e-9);      // 10x down = -10 dB
  EXPECT_NEAR(db(1, 0), -80.0, 1e-9);      // clamped at top_db
  EXPECT_GE(db.min(), -80.0 - 1e-9);
}

// -------------------------------------------------------------- Spectrogram

TEST(MelSpectrogram, PaperDefaults) {
  dsp::MelSpectrogram mel;
  EXPECT_DOUBLE_EQ(mel.params().sample_rate, 22050.0);
  EXPECT_EQ(mel.params().n_fft, 2048u);
  EXPECT_EQ(mel.params().hop, 512u);
  EXPECT_EQ(mel.params().n_mels, 128u);
}

TEST(MelSpectrogram, ComputeShapes) {
  dsp::MelSpectrogram mel;
  std::vector<double> clip(22050, 0.1);  // 1 s
  const auto m = mel.compute(clip);
  EXPECT_EQ(m.rows(), 128u);
  EXPECT_EQ(m.cols(), 1u + 22050u / 512u);
}

TEST(MelSpectrogram, ImageIsNormalizedSquare) {
  dsp::MelSpectrogram mel;
  beesim::util::Rng rng(8);
  std::vector<double> clip(22050);
  for (auto& v : clip) v = rng.normal();
  const auto img = mel.compute_image(clip, 64);
  EXPECT_EQ(img.rows(), 64u);
  EXPECT_EQ(img.cols(), 64u);
  EXPECT_NEAR(img.min(), 0.0, 1e-12);
  EXPECT_NEAR(img.max(), 1.0, 1e-12);
}

