#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "audio/dataset.hpp"
#include "audio/synth.hpp"
#include "audio/wav.hpp"
#include "dsp/spectrogram.hpp"
#include "dsp_oracle.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace audio = beesim::audio;
namespace dsp = beesim::dsp;
namespace oracle = beesim::oracle;

// -------------------------------------------------------------------- Synth

TEST(BeeAudioSynth, ProducesRequestedLengthAndUnitRms) {
  audio::BeeAudioSynth synth;
  beesim::util::Rng rng(1);
  const auto clip = synth.synthesize(true, 2.0, rng);
  EXPECT_EQ(clip.size(), static_cast<std::size_t>(2.0 * 22050.0));
  double rms = 0.0;
  for (double v : clip) rms += v * v;
  rms = std::sqrt(rms / static_cast<double>(clip.size()));
  EXPECT_NEAR(rms, 1.0, 1e-9);
}

TEST(BeeAudioSynth, DeterministicGivenRngState) {
  audio::BeeAudioSynth synth;
  beesim::util::Rng a(9);
  beesim::util::Rng b(9);
  EXPECT_EQ(synth.synthesize(false, 0.5, a), synth.synthesize(false, 0.5, b));
}

TEST(BeeAudioSynth, RecordingsDifferAcrossDraws) {
  audio::BeeAudioSynth synth;
  beesim::util::Rng rng(10);
  const auto c1 = synth.synthesize(true, 0.5, rng);
  const auto c2 = synth.synthesize(true, 0.5, rng);
  EXPECT_NE(c1, c2);
}

TEST(BeeAudioSynth, RejectsNonPositiveDuration) {
  audio::BeeAudioSynth synth;
  beesim::util::Rng rng(11);
  EXPECT_THROW(synth.synthesize(true, 0.0, rng), std::invalid_argument);
}

/// The queenless "roar" shifts the hum's fundamental (and hence every
/// partial) upward — the physical cue the classifier learns. The dominant
/// mel band of a queenless recording must sit above the queenright one.
TEST(BeeAudioSynth, QueenlessFundamentalSitsHigher) {
  audio::BeeAudioSynth synth;
  dsp::MelSpectrogram mel;
  // Paired comparison: both classes consume the same RNG stream, so each
  // pair of recordings shares its nuisance draws and the class shift is
  // isolated. The centroid is restricted to the fundamental region
  // (bands 8-20 cover ~120-550 Hz) so the per-recording spectral ripple
  // boosting an upper harmonic cannot steal it.
  auto mean_centroid = [&](bool queen) {
    beesim::util::Rng rng(12);
    double acc = 0.0;
    const int reps = 16;
    for (int r = 0; r < reps; ++r) {
      const auto clip = synth.synthesize(queen, 1.0, rng);
      const auto feats =
          oracle::band_means(dsp::power_to_db(mel.compute(clip)));
      double num = 0.0;
      double den = 0.0;
      for (std::size_t m = 8; m <= 20; ++m) {
        const double w = std::pow(10.0, feats[m] / 10.0);  // dB -> linear
        num += w * static_cast<double>(m);
        den += w;
      }
      acc += num / den;
    }
    return acc / reps;
  };
  EXPECT_GT(mean_centroid(false), mean_centroid(true) + 0.8);
}

// ------------------------------------------------------------------ Dataset

TEST(Dataset, BalancedAndShaped) {
  audio::DatasetParams params;
  params.count = 20;
  params.clip_seconds = 0.8;
  const auto ds = audio::generate_queen_dataset(params);
  EXPECT_EQ(ds.size(), 20u);
  int queen = 0;
  for (const auto& ex : ds.examples) {
    if (ex.queen_present) ++queen;
    EXPECT_EQ(ex.mel_db.rows(), 128u);
    EXPECT_EQ(ex.features.size(), 128u);
    EXPECT_GT(ex.mel_db.cols(), 0u);
  }
  EXPECT_EQ(queen, 10);
}

TEST(Dataset, DeterministicForSeed) {
  audio::DatasetParams params;
  params.count = 6;
  params.clip_seconds = 0.5;
  const auto a = audio::generate_queen_dataset(params);
  const auto b = audio::generate_queen_dataset(params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.examples[i].features, b.examples[i].features);
}

TEST(Dataset, ImageRenderingIsNormalized) {
  audio::DatasetParams params;
  params.count = 2;
  params.clip_seconds = 0.5;
  const auto ds = audio::generate_queen_dataset(params);
  const auto img = ds.image(0, 48);
  EXPECT_EQ(img.rows(), 48u);
  EXPECT_NEAR(img.min(), 0.0, 1e-12);
  EXPECT_NEAR(img.max(), 1.0, 1e-12);
}

TEST(Dataset, SplitIsDisjointAndCovers) {
  audio::DatasetParams params;
  params.count = 30;
  params.clip_seconds = 0.5;
  const auto ds = audio::generate_queen_dataset(params);
  const auto split = audio::split_dataset(ds, 0.3);
  EXPECT_EQ(split.train.size() + split.test.size(), ds.size());
  std::vector<bool> seen(ds.size(), false);
  for (auto i : split.train) seen[i] = true;
  for (auto i : split.test) {
    EXPECT_FALSE(seen[i]) << "index in both splits";
    seen[i] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
  // Roughly the requested fraction.
  EXPECT_NEAR(static_cast<double>(split.test.size()) /
                  static_cast<double>(ds.size()),
              0.3, 0.1);
}

TEST(Dataset, SplitKeepsBothClassesInTest) {
  audio::DatasetParams params;
  params.count = 30;
  params.clip_seconds = 0.5;
  const auto ds = audio::generate_queen_dataset(params);
  const auto split = audio::split_dataset(ds, 0.3);
  int queen = 0;
  for (auto i : split.test)
    if (ds.examples[i].queen_present) ++queen;
  EXPECT_GT(queen, 0);
  EXPECT_LT(queen, static_cast<int>(split.test.size()));
}

TEST(Dataset, RejectsBadParams) {
  audio::DatasetParams params;
  params.count = 1;
  EXPECT_THROW(audio::generate_queen_dataset(params), std::invalid_argument);
  audio::DatasetParams ok;
  ok.count = 4;
  ok.clip_seconds = 0.5;
  const auto ds = audio::generate_queen_dataset(ok);
  EXPECT_THROW(audio::split_dataset(ds, 0.0), std::invalid_argument);
  EXPECT_THROW(audio::split_dataset(ds, 1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------- WAV

TEST(Wav, RoundTripPreservesSamples) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "beesim_test.wav").string();
  std::vector<double> samples(1000);
  for (std::size_t i = 0; i < samples.size(); ++i)
    samples[i] = std::sin(static_cast<double>(i) * 0.05) * 0.8;
  audio::write_wav(path, samples, 22050.0);
  const auto wav = audio::read_wav(path);
  EXPECT_DOUBLE_EQ(wav.sample_rate, 22050.0);
  ASSERT_EQ(wav.samples.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i)
    EXPECT_NEAR(wav.samples[i], samples[i], 1.0 / 32767.0);
  std::remove(path.c_str());
}

TEST(Wav, ClipsOutOfRangeOnWrite) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "beesim_clip.wav").string();
  audio::write_wav(path, {2.0, -2.0}, 8000.0);
  const auto wav = audio::read_wav(path);
  EXPECT_NEAR(wav.samples[0], 1.0, 1e-4);
  EXPECT_NEAR(wav.samples[1], -1.0, 1e-4);
  std::remove(path.c_str());
}

TEST(Wav, ReadRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "beesim_bad.wav").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a wav file", f);
    std::fclose(f);
  }
  EXPECT_THROW(audio::read_wav(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Wav, MissingFileThrows) {
  EXPECT_THROW(audio::read_wav("/nonexistent/nope.wav"), std::runtime_error);
}
