#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsp/fft.hpp"
#include "dsp/matrix.hpp"
#include "dsp/mel.hpp"
#include "dsp/spectrogram.hpp"
#include "dsp/stft.hpp"
#include "dsp/window.hpp"
#include "util/rng.hpp"

namespace dsp = beesim::dsp;

// ---------------------------------------------------------------------- FFT
// Properties of the planned transforms (FftPlan, RealFftPlan), the only
// FFTs in src/; test_dsp_kernels.cpp checks them against the naive one.

TEST(Fft, DeltaHasFlatSpectrum) {
  std::vector<dsp::Complex> x(8, {0.0, 0.0});
  x[0] = {1.0, 0.0};
  dsp::FftPlan(8).forward(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantSignalConcentratesAtDc) {
  std::vector<dsp::Complex> x(16, {1.0, 0.0});
  dsp::FftPlan(16).forward(x);
  EXPECT_NEAR(x[0].real(), 16.0, 1e-12);
  for (std::size_t i = 1; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-12);
}

TEST(Fft, PureToneLandsInCorrectBin) {
  const std::size_t n = 256;
  const std::size_t bin = 19;
  std::vector<dsp::Complex> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::cos(2.0 * std::numbers::pi * static_cast<double>(bin * i) /
                    static_cast<double>(n));
  dsp::FftPlan(n).forward(x);
  // A real tone splits into `bin` and its mirror n - bin, amplitude n/2
  // each (RealFftPlan.PureToneLandsInCorrectBin covers the half spectrum).
  EXPECT_NEAR(std::abs(x[bin]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(x[n - bin]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(x[bin - 3]), 0.0, 1e-9);
}

TEST(Fft, ParsevalHolds) {
  beesim::util::Rng rng(5);
  std::vector<dsp::Complex> x(64);
  double time_energy = 0.0;
  for (auto& v : x) {
    v = {rng.normal(), 0.0};
    time_energy += std::norm(v);
  }
  dsp::FftPlan(64).forward(x);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 64.0, time_energy, 1e-9);
}

TEST(Fft, LinearityProperty) {
  beesim::util::Rng rng(6);
  const std::size_t n = 32;
  std::vector<dsp::Complex> a(n);
  std::vector<dsp::Complex> b(n);
  std::vector<dsp::Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = {rng.normal(), rng.normal()};
    b[i] = {rng.normal(), rng.normal()};
    sum[i] = a[i] + 2.0 * b[i];
  }
  const dsp::FftPlan plan(n);
  plan.forward(a);
  plan.forward(b);
  plan.forward(sum);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(sum[i] - (a[i] + 2.0 * b[i])), 0.0, 1e-9);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(dsp::FftPlan(0), std::invalid_argument);
  EXPECT_THROW(dsp::RealFftPlan(12), std::invalid_argument);
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

TEST(Window, HammingNeverReachesZero) {
  const auto w = dsp::hamming_window(16);
  for (double v : w) EXPECT_GT(v, 0.05);
}

TEST(Window, ApplyMultipliesElementwise) {
  std::vector<double> frame{1.0, 2.0, 3.0, 4.0};
  dsp::apply_window(frame, {0.5, 0.5, 0.5, 0.5});
  EXPECT_EQ(frame, (std::vector<double>{0.5, 1.0, 1.5, 2.0}));
  std::vector<double> bad{1.0};
  EXPECT_THROW(dsp::apply_window(bad, {0.5, 0.5}), std::invalid_argument);
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
  // One frame of 129 bins fills column 3 of a 16 x 10 mel matrix (stride
  // 10) and leaves every other column alone.
  const std::vector<double> power(fb.bins(), 1.0);
  dsp::Matrix mel(16, 10, -1.0);
  fb.apply(power.data(), mel.data() + 3, mel.cols());
  for (std::size_t m = 0; m < mel.rows(); ++m)
    for (std::size_t f = 0; f < mel.cols(); ++f) {
      if (f == 3) EXPECT_GT(mel(m, f), 0.0) << "band " << m;
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

TEST(MelSpectrogram, FeaturesHaveMelDimension) {
  dsp::MelSpectrogram mel;
  std::vector<double> clip(22050, 0.0);
  for (std::size_t i = 0; i < clip.size(); ++i)
    clip[i] = std::sin(2.0 * std::numbers::pi * 230.0 *
                       static_cast<double>(i) / 22050.0);
  const auto f = mel.compute_features(clip);
  EXPECT_EQ(f.size(), 128u);
  // Low bands (hive-hum region) should dominate for a 230 Hz tone.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < f.size(); ++i)
    if (f[i] > f[peak]) peak = i;
  EXPECT_LT(peak, 24u);
}
