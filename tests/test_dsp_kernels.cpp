#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include "dsp/dispatch.hpp"
#include "dsp/mel.hpp"
#include "dsp/spectrogram.hpp"
#include "dsp/stft.hpp"
#include "dsp_oracle.hpp"
#include "ml/layers.hpp"
#include "ml/network.hpp"
#include "obs/catalog.hpp"
#include "tiers.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

// Each DSP/ML kernel's one production path against its oracle in
// dsp_oracle.hpp: bit-identical where the accumulation order is
// unchanged (the batched STFT against the per-frame planned real FFT,
// with in-place and reflect-mapped frames and every partial batch; the
// batched banded filterbank; row-chunked power_to_db; and the fused
// mel front end they make up), <= 1e-9 relative where the FFT algorithm
// differs (the planned FFT oracle vs the full complex FFT), and float
// tolerance for the GEMM convolution.

namespace dsp = beesim::dsp;
namespace ml = beesim::ml;
namespace oracle = beesim::oracle;
namespace tiers = beesim::tiers;
using oracle::expect_matrices_close;
using oracle::expect_matrices_identical;

namespace {

std::vector<double> random_signal(std::size_t n, beesim::util::Rng& rng) {
  std::vector<double> x(n);
  for (auto& v : x) v = rng.normal();
  return x;
}

}  // namespace

// ---------------------------------------------------------------- FFT plan
// The planned per-frame FFT oracle (FftPlan / RealFftPlan in
// dsp_oracle.hpp), which the batched STFT must equal bit for bit, is
// itself held to the naive FFT here.

TEST(FftPlan, MatchesReferenceFft) {
  beesim::util::Rng rng(11);
  for (std::size_t n : {1u, 2u, 4u, 8u, 64u, 256u, 1024u, 4096u}) {
    std::vector<oracle::Complex> data(n);
    for (auto& v : data) v = {rng.normal(), rng.normal()};
    auto reference = data;
    oracle::fft(reference);
    const oracle::FftPlan plan(n);
    plan.forward(data);
    double scale = 1.0;
    for (const auto& v : reference) scale = std::max(scale, std::abs(v));
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_NEAR(std::abs(data[i] - reference[i]), 0.0, 1e-9 * scale)
          << "n " << n << " bin " << i;
  }
}

TEST(FftPlan, RejectsNonPowerOfTwoAndSizeMismatch) {
  EXPECT_THROW(oracle::FftPlan(12), std::invalid_argument);
  EXPECT_THROW(oracle::RealFftPlan(12), std::invalid_argument);
  const oracle::FftPlan plan(8);
  std::vector<oracle::Complex> wrong(4);
  EXPECT_THROW(plan.forward(wrong), std::invalid_argument);
}

TEST(RealFftPlan, MatchesReferenceRfft) {
  beesim::util::Rng rng(12);
  for (std::size_t n : {1u, 2u, 4u, 8u, 32u, 512u, 2048u, 4096u}) {
    const auto signal = random_signal(n, rng);
    const auto reference = oracle::rfft(signal);
    const oracle::RealFftPlan plan(n);
    const auto fast = plan.transform(signal);
    ASSERT_EQ(fast.size(), n / 2 + 1);
    double scale = 1.0;
    for (const auto& v : reference) scale = std::max(scale, std::abs(v));
    for (std::size_t b = 0; b < fast.size(); ++b)
      ASSERT_NEAR(std::abs(fast[b] - reference[b]), 0.0, 1e-9 * scale)
          << "n " << n << " bin " << b;
  }
}

TEST(RealFftPlan, PureToneLandsInCorrectBin) {
  const std::size_t n = 256;
  const std::size_t bin = 19;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::cos(2.0 * std::numbers::pi * static_cast<double>(bin * i) /
                    static_cast<double>(n));
  const oracle::RealFftPlan plan(n);
  const auto spec = plan.transform(x);
  EXPECT_NEAR(std::abs(spec[bin]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(spec[bin - 3]), 0.0, 1e-9);
}

TEST(RealFftPlan, PowerMatchesTransformSquared) {
  beesim::util::Rng rng(13);
  const std::size_t n = 1024;
  const auto signal = random_signal(n, rng);
  const oracle::RealFftPlan plan(n);
  const auto spec = plan.transform(signal);
  std::vector<oracle::Complex> scratch(plan.scratch_size());
  std::vector<double> power(plan.bins());
  plan.power(signal.data(), power.data(), scratch.data());
  for (std::size_t b = 0; b < plan.bins(); ++b)
    ASSERT_DOUBLE_EQ(power[b], std::norm(spec[b])) << "bin " << b;
}

// -------------------------------------------------------------------- STFT

TEST(StftKernels, FastMatchesReference) {
  beesim::util::Rng rng(14);
  const auto signal = random_signal(10000, rng);
  dsp::StftParams p;
  p.n_fft = 1024;
  p.hop = 256;
  expect_matrices_close(dsp::stft_power(signal, p),
                        oracle::stft_power_naive(signal, p), 1e-9);
}

TEST(StftKernels, ChunkingIsBitIdentical) {
  beesim::util::Rng rng(15);
  const auto signal = random_signal(30000, rng);
  expect_matrices_identical(dsp::stft_power(signal),
                            oracle::stft_power_serial(signal, {}));
  // The smallest transforms (one bin; no stage; one single stage; one
  // stage pair), with and without centering, at lengths giving 1 to 9
  // frames and a few chunks.
  for (const std::size_t n_fft : {1u, 2u, 4u, 8u}) {
    for (const std::size_t hop : {std::size_t{1}, n_fft, 3 * n_fft}) {
      for (const bool center : {true, false}) {
        dsp::StftParams p;
        p.n_fft = n_fft;
        p.hop = hop;
        p.center = center;
        for (std::size_t len = std::max<std::size_t>(2, n_fft);
             len < n_fft + 9 * hop; len += std::max<std::size_t>(1, hop / 2))
          for (const std::size_t extra : {std::size_t{0}, 70 * hop}) {
            SCOPED_TRACE(testing::Message()
                         << "n_fft " << n_fft << " hop " << hop
                         << " center " << center << " length "
                         << len + extra);
            const auto x = random_signal(len + extra, rng);
            expect_matrices_identical(dsp::stft_power(x, p),
                                      oracle::stft_power_serial(x, p));
          }
      }
    }
  }
}

TEST(StftKernels, ReflectPadShortSignalThrows) {
  // Regression: pad >= signal length used to silently wrap the modulo
  // index and produce a wrong (non-reflect) padding; now it must throw.
  dsp::StftParams p;
  p.n_fft = 256;
  p.hop = 64;
  for (std::size_t len : {1u, 2u, 100u, 128u}) {  // all <= n_fft/2
    const std::vector<double> x(len, 1.0);
    EXPECT_THROW(dsp::stft_power(x, p), std::invalid_argument)
        << "length " << len;
  }
  const std::vector<double> ok(p.n_fft / 2 + 1, 1.0);
  EXPECT_NO_THROW(dsp::stft_power(ok, p));
}

// ------------------------------------------------------------- Filterbank

namespace {

/// Applies the banded form batch by batch, as MelSpectrogram does: kBatch
/// frames' bins interleaved, the last batch short with its spare lanes
/// holding its last frame, each batch into its columns of the
/// (bands x frames) result.
dsp::Matrix apply_per_batch(const dsp::BandedFilterbank& banded,
                            const dsp::Matrix& power) {
  constexpr std::size_t kBatch = dsp::StftPlan::kBatch;
  dsp::Matrix mel(banded.bands(), power.cols());
  std::vector<double> batch(kBatch * power.rows());
  for (std::size_t first = 0; first < power.cols(); first += kBatch) {
    const std::size_t count = std::min(kBatch, power.cols() - first);
    for (std::size_t b = 0; b < power.rows(); ++b)
      for (std::size_t l = 0; l < kBatch; ++l)
        batch[kBatch * b + l] = power(b, first + std::min(l, count - 1));
    banded.apply(batch.data(), count, mel.data() + first, mel.cols());
  }
  return mel;
}

}  // namespace

TEST(BandedFilterbank, MatchesDenseBitIdentical) {
  beesim::util::Rng rng(16);
  for (std::size_t n_mels : {16u, 128u})
    for (std::size_t frames : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 37u}) {
      const auto fb = dsp::mel_filterbank(n_mels, 2048, 22050.0);
      dsp::Matrix power(fb.cols(), frames);
      for (std::size_t r = 0; r < power.rows(); ++r)
        for (std::size_t c = 0; c < power.cols(); ++c)
          power(r, c) = rng.uniform(0.0, 10.0);
      const dsp::BandedFilterbank banded(fb);
      expect_matrices_identical(apply_per_batch(banded, power),
                                oracle::apply_filterbank(fb, power));
    }
  // A non-triangular bank with interior zeros (both signs) and negative
  // weights: the banded span keeps the zeros, and both sides skip them.
  dsp::Matrix bank(6, 40);
  for (std::size_t m = 0; m < bank.rows(); ++m)
    for (std::size_t b = 3 * m; b < 3 * m + 12; ++b) {
      const double u = rng.uniform();
      bank(m, b) = u < 0.2 ? 0.0 : u < 0.3 ? -0.0 : rng.normal();
    }
  dsp::Matrix power(bank.cols(), 9);
  for (std::size_t r = 0; r < power.rows(); ++r)
    for (std::size_t c = 0; c < power.cols(); ++c)
      power(r, c) = rng.normal();
  expect_matrices_identical(apply_per_batch(dsp::BandedFilterbank(bank), power),
                            oracle::apply_filterbank(bank, power));
}

TEST(BandedFilterbank, StoresOnlyTheNonzeroBands) {
  const auto fb = dsp::mel_filterbank(128, 2048, 22050.0);
  const dsp::BandedFilterbank banded(fb);
  EXPECT_EQ(banded.bands(), 128u);
  EXPECT_EQ(banded.bins(), 1025u);
  // The dense matrix is >90% zeros; the banded form must reflect that.
  EXPECT_LT(banded.nonzeros(), fb.rows() * fb.cols() / 10);
  EXPECT_GT(banded.nonzeros(), 0u);
}

// ------------------------------------------------------------- power_to_db

TEST(PowerToDb, MatchesLegacyTwoPassBitIdentical) {
  // The pre-optimization implementation: dB conversion, a second pass
  // tracking the peak, then a clamp at peak - top_db. Kept inline here as
  // the oracle for the single, row-chunked pass.
  const auto legacy = [](const dsp::Matrix& power, double top_db) {
    constexpr double kAmin = 1e-10;
    const double ref = std::max(power.max(), kAmin);
    dsp::Matrix out(power.rows(), power.cols());
    double peak = -1e300;
    for (std::size_t r = 0; r < power.rows(); ++r)
      for (std::size_t c = 0; c < power.cols(); ++c) {
        const double db =
            10.0 * std::log10(std::max(power(r, c), kAmin) / ref);
        out(r, c) = db;
        peak = std::max(peak, db);
      }
    for (std::size_t r = 0; r < out.rows(); ++r)
      for (std::size_t c = 0; c < out.cols(); ++c)
        out(r, c) = std::max(out(r, c), peak - top_db);
    return out;
  };

  beesim::util::Rng rng(17);
  dsp::Matrix random(33, 21);
  for (std::size_t r = 0; r < random.rows(); ++r)
    for (std::size_t c = 0; c < random.cols(); ++c)
      random(r, c) = rng.uniform() < 0.2 ? 0.0 : rng.uniform(0.0, 1e4);
  dsp::Matrix zeros(5, 5, 0.0);
  dsp::Matrix tiny(4, 4, 1e-13);  // everything below the 1e-10 floor
  // Shapes the row-chunked pass splits into several chunks (the 10 s
  // clip's 128 x 431 mel matrix among them) and one it cannot split.
  std::vector<dsp::Matrix> large;
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{128, 431}, {7, 5000},
        {3, 1366}, {1, 20000}}) {
    large.emplace_back(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        large.back()(r, c) =
            rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 1e3);
  }
  for (const auto* m : {&random, &zeros, &tiny, &large[0], &large[1],
                        &large[2], &large[3]})
    for (double top_db : {80.0, 30.0})
      expect_matrices_identical(dsp::power_to_db(*m, top_db),
                                legacy(*m, top_db));
}

TEST(PowerToDb, ColumnsConvertOnlyTheirColumnsWithTheWholePeak) {
  // The peak sits in a column that is not converted: every listed
  // column must still read power_to_db's bits, every other column its
  // power, on one row chunk (8 x 12) and several (128 x 431).
  beesim::util::Rng rng(28);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{8, 12}, {128, 431}}) {
    dsp::Matrix power(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        power(r, c) = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 1e3);
    power(rows / 2, 1) = 1e6;
    std::vector<std::size_t> columns;
    for (std::size_t c = 0; c < cols; c += 3) columns.push_back(c);
    const dsp::Matrix db = dsp::power_to_db(power);
    dsp::Matrix got = power;
    dsp::power_to_db_columns(got, columns);
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t c = 0; c < cols; ++c)
        ASSERT_EQ(got(r, c), c % 3 == 0 ? db(r, c) : power(r, c))
            << rows << "x" << cols << " at (" << r << ", " << c << ")";
    dsp::Matrix untouched = power;
    EXPECT_THROW(dsp::power_to_db_columns(untouched, {0, cols}),
                 std::out_of_range);
    expect_matrices_identical(untouched, power);
  }
}

// ------------------------------------------------------------ Conv2d GEMM

TEST(ConvGemm, ForwardMatchesNaive) {
  // A generic shape, then the queen CNN's two conv layers (base width 8)
  // at a 20 px input, each under every dispatch tier's GEMM. Biases are
  // drawn at random: the constructor leaves them zero, which would hide
  // a GEMM that drops them.
  const tiers::IsaGuard guard;
  struct Shape {
    std::size_t in_ch, out_ch, h, w;
  };
  beesim::util::Rng rng(18);
  for (const Shape s : {Shape{3, 5, 17, 13}, Shape{1, 8, 20, 20},
                        Shape{8, 16, 10, 10}}) {
    ml::Conv2d conv(s.in_ch, s.out_ch, 3, rng);
    std::vector<float> params;
    conv.append_parameters(params);
    for (std::size_t i = params.size() - s.out_ch; i < params.size(); ++i)
      params[i] = static_cast<float>(rng.normal());
    const float* cursor = params.data();
    conv.load_parameters(cursor);
    ml::Tensor input({2, s.in_ch, s.h, s.w});
    for (std::size_t i = 0; i < input.size(); ++i)
      input[i] = static_cast<float>(rng.normal());

    const auto reference = oracle::conv2d_forward(conv, input);
    float scale = 1.0f;
    for (std::size_t i = 0; i < reference.size(); ++i)
      scale = std::max(scale, std::abs(reference[i]));
    for (const auto tier : tiers::kDispatch) {
      dsp::set_active_isa(tier);
      const auto fast = conv.forward(input, false, ml::Precision::kF32);
      ASSERT_TRUE(fast.same_shape(reference));
      for (std::size_t i = 0; i < reference.size(); ++i)
        ASSERT_NEAR(fast[i], reference[i], 1e-5f * scale)
            << dsp::isa_name(dsp::active_isa()) << " in " << s.in_ch
            << " out " << s.out_ch << " index " << i;
    }
  }
}

TEST(ConvGemm, QueenCnnLogitsMatchNaive) {
  // The whole queen CNN end to end: its logits under every dispatch
  // tier against a mirror of the same layers whose two convolutions run
  // the oracle's loop nest.
  const tiers::IsaGuard guard;
  const std::size_t side = 20;
  const std::size_t base = 8;
  beesim::util::Rng net_rng(19);
  auto net = ml::make_queen_cnn(net_rng, base, side);
  ml::Tensor input({2, 1, side, side});
  beesim::util::Rng in_rng(20);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(in_rng.uniform());

  beesim::util::Rng mirror_rng(0);
  ml::Conv2d conv1(1, base, 3, mirror_rng);
  ml::Conv2d conv2(base, base * 2, 3, mirror_rng);
  ml::Linear head(base * 2 * (side / 4), 2, mirror_rng);
  const auto params = net.parameters();
  const float* cursor = params.data();
  conv1.load_parameters(cursor);
  conv2.load_parameters(cursor);
  head.load_parameters(cursor);
  ASSERT_EQ(cursor, params.data() + params.size());
  ml::ReLU relu;
  ml::MaxPool2 pool;
  ml::TimeAvgPool time_pool;
  constexpr ml::Precision kF32 = ml::Precision::kF32;
  auto x = pool.forward(
      relu.forward(oracle::conv2d_forward(conv1, input), false, kF32),
      false, kF32);
  x = pool.forward(
      relu.forward(oracle::conv2d_forward(conv2, x), false, kF32), false,
      kF32);
  const auto reference =
      head.forward(time_pool.forward(x, false, kF32), false, kF32);

  for (const auto tier : tiers::kDispatch) {
    dsp::set_active_isa(tier);
    const auto fast = net.forward(input, false);
    ASSERT_TRUE(fast.same_shape(reference));
    for (std::size_t i = 0; i < reference.size(); ++i)
      ASSERT_NEAR(fast[i], reference[i],
                  1e-4f * std::max(1.0f, std::abs(reference[i])))
          << dsp::isa_name(dsp::active_isa()) << " index " << i;
  }
}

namespace {

/// One convolution the row blocks must reproduce: the queen CNN's two
/// layer shapes and a 5x5 kernel, at heights around the 8-row block
/// (one block, a partial one, several), 1 or 3 images, f32 or int8.
struct ConvCase {
  std::size_t in_ch, out_ch, kernel, batch, h, w;
  ml::Precision precision;
};

std::vector<ConvCase> conv_cases() {
  struct Layer {
    std::size_t in_ch, out_ch, kernel;
  };
  std::vector<ConvCase> cases;
  for (const Layer l : {Layer{1, 8, 3}, Layer{8, 16, 3}, Layer{3, 4, 5}})
    for (const std::size_t h : {1, 2, 7, 8, 9, 17, 100})
      for (const std::size_t batch : {1, 3})
        for (const auto precision : {ml::Precision::kF32, ml::Precision::kInt8})
          cases.push_back({l.in_ch, l.out_ch, l.kernel, batch, h,
                           h == 100 ? std::size_t{100} : std::size_t{13},
                           precision});
  return cases;
}

/// A case's layer, with random biases (the constructor leaves them zero),
/// and its input, drawn from the case's own seed.
struct ConvSetup {
  ConvSetup(const ConvCase& c, std::uint64_t seed)
      : rng(seed), conv(c.in_ch, c.out_ch, c.kernel, rng),
        input({c.batch, c.in_ch, c.h, c.w}) {
    std::vector<float> params;
    conv.append_parameters(params);
    for (std::size_t i = params.size() - c.out_ch; i < params.size(); ++i)
      params[i] = static_cast<float>(rng.normal());
    const float* cursor = params.data();
    conv.load_parameters(cursor);
    for (std::size_t i = 0; i < input.size(); ++i)
      input[i] = static_cast<float>(rng.normal());
  }

  beesim::util::Rng rng;
  ml::Conv2d conv;
  ml::Tensor input;
};

}  // namespace

TEST(ConvGemm, RowBlocksBitIdenticalToWholeImageGemm) {
  // Conv2d::forward runs one task per (image, 8-row block); each output
  // element still sums over ascending k in every tier, and at int8 the
  // image's own scale equals its im2col matrix's, so the blocks must
  // give the whole-image loop's bits.
  const tiers::IsaGuard guard;
  const std::vector<ConvCase> cases = conv_cases();
  for (const auto tier : tiers::kDispatch) {
    dsp::set_active_isa(tier);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const ConvCase& c = cases[i];
      SCOPED_TRACE(testing::Message()
                   << dsp::isa_name(dsp::active_isa()) << " case " << i
                   << ": " << c.in_ch << "->" << c.out_ch << " k" << c.kernel
                   << " n" << c.batch << " " << c.h << "x" << c.w << " "
                   << ml::precision_name(c.precision));
      ConvSetup s(c, 1000 + i);
      oracle::expect_tensors_identical(
          s.conv.forward(s.input, false, c.precision),
          oracle::conv2d_gemm(s.conv, s.input, c.precision));
    }
  }
  // Once more with every case inside one index of an outer parallel_for,
  // so the row blocks run as nested regions.
  std::vector<ml::Tensor> got(cases.size());
  beesim::util::parallel_for(cases.size(), [&](std::size_t i) {
    ConvSetup s(cases[i], 1000 + i);
    got[i] = s.conv.forward(s.input, false, cases[i].precision);
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "nested case " << i);
    ConvSetup s(cases[i], 1000 + i);
    oracle::expect_tensors_identical(
        got[i], oracle::conv2d_gemm(s.conv, s.input, cases[i].precision));
  }
}

// ----------------------------------------------------------- Mel pipeline

TEST(MelPipeline, FastMatchesReference) {
  beesim::util::Rng rng(21);
  const auto clip = random_signal(22050, rng);
  const dsp::MelSpectrogram mel;
  const auto& mp = mel.params();
  dsp::StftParams sp;
  sp.n_fft = mp.n_fft;
  sp.hop = mp.hop;
  const auto reference = oracle::apply_filterbank(
      dsp::mel_filterbank(mp.n_mels, mp.n_fft, mp.sample_rate, mp.fmin,
                          mp.fmax),
      oracle::stft_power_naive(clip, sp));
  const auto ref_features = oracle::band_means(dsp::power_to_db(reference));

  const auto fast = mel.compute(clip);
  const auto fast_features = oracle::band_means(dsp::power_to_db(fast));
  expect_matrices_close(fast, reference, 1e-9);
  ASSERT_EQ(fast_features.size(), ref_features.size());
  for (std::size_t i = 0; i < ref_features.size(); ++i)
    ASSERT_NEAR(fast_features[i], ref_features[i], 1e-6);
}

namespace {

/// Signal lengths that reach reflect-mapped frames at both ends: the
/// shortest signal that can be padded, one sample short of a frame, one
/// frame and a hop plus a sample, exactly one 16-frame STFT chunk and one
/// chunk plus a frame (15 and 16 hops), n_fft plus 0 to 16 hops (1 to 17
/// frames without centering, so every short last batch of 1 to 7 spare
/// lanes and a one-frame chunk tail; 5 to 21 with it at the paper's
/// n_fft), then 1 s and 10 s at 22050 Hz for the paper's n_fft.
std::vector<std::size_t> edge_lengths(const dsp::MelSpectrogram::Params& mp) {
  const std::size_t shortest = std::max<std::size_t>(2, mp.n_fft / 2 + 1);
  std::vector<std::size_t> lengths = {shortest,    mp.n_fft - 1,
                                      mp.n_fft + mp.hop + 1,
                                      15 * mp.hop, 16 * mp.hop};
  for (std::size_t k = 0; k <= 16; ++k)
    lengths.push_back(mp.n_fft + k * mp.hop);
  if (mp.n_fft >= 2048) lengths.insert(lengths.end(), {22050, 220500});
  std::erase_if(lengths, [&](std::size_t len) { return len < shortest; });
  return lengths;
}

/// The paper's front end, then the smallest transforms (n_fft 1, 2, 4
/// and 8) with a few mel bands.
std::vector<dsp::MelSpectrogram::Params> front_end_params() {
  std::vector<dsp::MelSpectrogram::Params> params(1);
  for (const std::size_t n_fft : {1u, 2u, 4u, 8u}) {
    dsp::MelSpectrogram::Params mp;
    mp.n_fft = n_fft;
    mp.hop = std::max<std::size_t>(1, n_fft / 2);
    mp.n_mels = 4;
    params.push_back(mp);
  }
  return params;
}

/// compute_image sides: its dB pass then converts 2 or 3 columns, every
/// column (frames <= side) or about half of them (side 100 of a 10 s
/// clip's 431 frames).
constexpr std::size_t kImageSides[] = {1, 2, 64, 100};

/// Everything the mel front end produces for one signal.
struct FrontEnd {
  dsp::Matrix mel;
  std::vector<dsp::Matrix> images;  // one per kImageSides entry
  dsp::Matrix stft_centered;
  dsp::Matrix stft_plain;  // center = false; empty when too short
};

dsp::StftParams stft_of(const dsp::MelSpectrogram::Params& mp, bool center) {
  dsp::StftParams sp;
  sp.n_fft = mp.n_fft;
  sp.hop = mp.hop;
  sp.center = center;
  return sp;
}

FrontEnd production(const dsp::MelSpectrogram& mel,
                    const std::vector<double>& x) {
  const auto& mp = mel.params();
  FrontEnd out{mel.compute(x), {}, dsp::stft_power(x, stft_of(mp, true)), {}};
  for (const std::size_t side : kImageSides)
    out.images.push_back(mel.compute_image(x, side));
  if (x.size() >= mp.n_fft)
    out.stft_plain = dsp::stft_power(x, stft_of(mp, false));
  return out;
}

FrontEnd oracles(const dsp::MelSpectrogram::Params& mp,
                 const std::vector<double>& x) {
  FrontEnd out;
  out.mel = oracle::mel_power_serial(x, mp);
  for (const std::size_t side : kImageSides)
    out.images.push_back(oracle::mel_image(out.mel, side));
  out.stft_centered = oracle::stft_power_serial(x, stft_of(mp, true));
  if (x.size() >= mp.n_fft)
    out.stft_plain = oracle::stft_power_serial(x, stft_of(mp, false));
  return out;
}

void expect_identical(const FrontEnd& got, const FrontEnd& want) {
  expect_matrices_identical(got.mel, want.mel);
  ASSERT_EQ(got.images.size(), want.images.size());
  for (std::size_t i = 0; i < want.images.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "side " << kImageSides[i]);
    expect_matrices_identical(got.images[i], want.images[i]);
  }
  expect_matrices_identical(got.stft_centered, want.stft_centered);
  expect_matrices_identical(got.stft_plain, want.stft_plain);
}

}  // namespace

TEST(MelPipeline, BitIdenticalToSerialOracleOnEveryTier) {
  // The oracles run once under the scalar tier; every tier's fused front
  // end must reproduce them bit for bit.
  const tiers::IsaGuard guard;
  beesim::util::Rng rng(25);
  for (const auto& params : front_end_params()) {
    const dsp::MelSpectrogram mel(params);
    const auto& mp = mel.params();
    for (const std::size_t len : edge_lengths(mp)) {
      const auto x = random_signal(len, rng);
      dsp::set_active_isa(dsp::IsaRequest::kScalar);
      const FrontEnd want = oracles(mp, x);
      EXPECT_EQ(want.mel.cols(),
                dsp::stft_frame_count(len, stft_of(mp, true)));
      for (const auto tier : tiers::kDispatch) {
        dsp::set_active_isa(tier);
        SCOPED_TRACE(testing::Message()
                     << dsp::isa_name(dsp::active_isa()) << " n_fft "
                     << mp.n_fft << " length " << len);
        expect_identical(production(mel, x), want);
      }
      if (len < mp.n_fft) {
        EXPECT_THROW(dsp::stft_power(x, stft_of(mp, false)),
                     std::invalid_argument);
      }
    }
  }
}

TEST(MelPipeline, BitIdenticalToSerialOracleInsideAnOuterRegion) {
  // Every length's front end at once, each inside one index of an outer
  // parallel_for (the clip-parallel featurizer's shape), so the frame
  // loop and the dB pass run as nested regions.
  beesim::util::Rng rng(26);
  const dsp::MelSpectrogram mel;
  const auto& mp = mel.params();
  const auto lengths = edge_lengths(mp);
  std::vector<std::vector<double>> signals;
  for (const std::size_t len : lengths)
    signals.push_back(random_signal(len, rng));
  std::vector<FrontEnd> got(signals.size());
  beesim::util::parallel_for(signals.size(), [&](std::size_t i) {
    got[i] = production(mel, signals[i]);
  });
  for (std::size_t i = 0; i < signals.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "length " << lengths[i]);
    expect_identical(got[i], oracles(mp, signals[i]));
  }
}

TEST(MelPipeline, ConstructorRejectsBadStftParams) {
  dsp::MelSpectrogram::Params p;
  p.hop = 0;
  EXPECT_THROW(dsp::MelSpectrogram{p}, std::invalid_argument);
  for (const std::size_t n_fft : {0u, 1000u, 2047u, 3072u}) {
    p = {};
    p.n_fft = n_fft;
    EXPECT_THROW(dsp::MelSpectrogram{p}, std::invalid_argument)
        << "n_fft " << n_fft;
  }
  p = {};
  p.n_fft = 1024;
  p.hop = 1;
  EXPECT_NO_THROW(dsp::MelSpectrogram{p});
}

TEST(MelPipeline, ShortSignalThrowsBeforeAnyFrameRuns) {
  // A signal of n_fft/2 samples or fewer cannot be reflect-padded. The
  // throw comes before the frame loop: no FFT runs, no frame is counted
  // and no pool task starts.
  auto& frames =
      beesim::obs::registry().counter(beesim::obs::metric::kDspStftFrames);
  auto& reuses = beesim::obs::registry().counter(
      beesim::obs::metric::kDspFftPlanReuses);
  const dsp::MelSpectrogram mel;
  const std::size_t half = mel.params().n_fft / 2;
  beesim::util::Rng rng(27);
  const auto& pool = beesim::util::TaskPool::instance();
  beesim::obs::set_enabled(true);
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, half - 1,
                                half}) {
    const auto x = random_signal(len, rng);
    const auto frames_before = frames.value();
    const auto reuses_before = reuses.value();
    const auto tasks_before = pool.stats().tasks;
    EXPECT_THROW(mel.compute(x), std::invalid_argument) << "length " << len;
    EXPECT_THROW(mel.compute_image(x, 100), std::invalid_argument);
    EXPECT_EQ(frames.value(), frames_before) << "length " << len;
    EXPECT_EQ(reuses.value(), reuses_before) << "length " << len;
    EXPECT_EQ(pool.stats().tasks, tasks_before) << "length " << len;
  }
  beesim::obs::set_enabled(false);
  EXPECT_NO_THROW(mel.compute(random_signal(half + 1, rng)));
}

// ------------------------------------------------------------ Obs metrics

TEST(KernelMetrics, StftCountsFramesAndPlanReuses) {
  auto& frames =
      beesim::obs::registry().counter(beesim::obs::metric::kDspStftFrames);
  auto& reuses = beesim::obs::registry().counter(
      beesim::obs::metric::kDspFftPlanReuses);
  const auto frames_before = frames.value();
  const auto reuses_before = reuses.value();

  beesim::obs::set_enabled(true);
  beesim::util::Rng rng(22);
  const auto signal = random_signal(8192, rng);
  dsp::StftParams p;
  p.n_fft = 1024;
  p.hop = 512;
  const auto power = dsp::stft_power(signal, p);
  EXPECT_EQ(frames.value() - frames_before, power.cols());
  // One count per transformed frame: 17 frames are two full batches and
  // one of a single frame, whose seven spare lanes are not counted.
  EXPECT_EQ(power.cols(), 17u);
  EXPECT_EQ(reuses.value() - reuses_before, power.cols());

  // MelSpectrogram::compute runs the same frame loop, which counts each
  // of its frames once.
  dsp::MelSpectrogram::Params mp;
  mp.n_fft = p.n_fft;
  mp.hop = p.hop;
  const dsp::MelSpectrogram mel(mp);
  const auto mel_frames_before = frames.value();
  const auto mel_reuses_before = reuses.value();
  const auto m = mel.compute(signal);
  beesim::obs::set_enabled(false);

  EXPECT_EQ(m.cols(), power.cols());
  EXPECT_EQ(frames.value() - mel_frames_before, power.cols());
  EXPECT_EQ(reuses.value() - mel_reuses_before, power.cols());
}

// ---------------------------------------------------------- Property fuzz

TEST(FuzzKernels, FastStftAndRfftMatchReferenceOnRandomShapes) {
  beesim::util::Rng rng(23);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n_fft =
        std::size_t{1} << rng.uniform_int(4, 11);  // 16 .. 2048
    // Random real-FFT equivalence at this size.
    const auto frame = random_signal(n_fft, rng);
    const auto ref_spec = oracle::rfft(frame);
    const auto fast_spec = oracle::RealFftPlan(n_fft).transform(frame);
    double scale = 1.0;
    for (const auto& v : ref_spec) scale = std::max(scale, std::abs(v));
    for (std::size_t b = 0; b < ref_spec.size(); ++b)
      ASSERT_NEAR(std::abs(fast_spec[b] - ref_spec[b]), 0.0, 1e-9 * scale)
          << "trial " << trial << " n_fft " << n_fft << " bin " << b;

    // Random STFT equivalence: signal long enough to reflect-pad.
    dsp::StftParams p;
    p.n_fft = n_fft;
    p.hop = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(n_fft)));
    p.center = rng.chance(0.5);
    const std::size_t len = n_fft / 2 + 1 +
                            static_cast<std::size_t>(rng.uniform_int(
                                static_cast<std::int64_t>(n_fft / 2),
                                8192));
    const auto signal = random_signal(len, rng);
    const auto fast = dsp::stft_power(signal, p);
    expect_matrices_close(fast, oracle::stft_power_naive(signal, p), 1e-9);
    expect_matrices_identical(fast, oracle::stft_power_serial(signal, p));
  }
}
