#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/fleet_columns.hpp"
#include "core/network_sim.hpp"
#include "dsp/dispatch.hpp"
#include "dsp/mel.hpp"
#include "dsp/stft.hpp"
#include "dsp/simd_kernels.hpp"
#include "dsp_oracle.hpp"
#include "tiers.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

// Scalar-vs-SIMD equivalence for every dispatched kernel. The dispatch
// contract (dsp/dispatch.hpp) promises bit identity, not mere closeness,
// so every comparison here is exact: fuzzed shapes (including odd sizes
// that exercise the vector tails and misaligned pointers that rule out
// aligned-load assumptions), each tier's output memcmp'd against the
// scalar oracle.

namespace dsp = beesim::dsp;
namespace core = beesim::core;
namespace tiers = beesim::tiers;
using beesim::tiers::IsaGuard;
using beesim::util::Rng;
using beesim::util::RunningStats;

namespace {

template <typename T>
std::vector<T> offset_copy(const std::vector<T>& v, std::size_t offset) {
  // Misaligned view: copy into a buffer at an element offset that breaks
  // 32-byte (and usually 16-byte) alignment of the data pointer.
  std::vector<T> buf(v.size() + offset);
  std::copy(v.begin(), v.end(), buf.begin() + offset);
  return buf;
}

}  // namespace

TEST(Dispatch, ProbeAndNames) {
  const dsp::IsaTier tier = dsp::detected_isa();
  EXPECT_GE(static_cast<int>(tier), 0);
  EXPECT_LE(static_cast<int>(tier), 3);
  EXPECT_STREQ(dsp::isa_name(dsp::IsaTier::kScalar), "scalar");
  EXPECT_STREQ(dsp::isa_name(dsp::IsaTier::kSse2), "sse2");
  EXPECT_STREQ(dsp::isa_name(dsp::IsaTier::kAvx2), "avx2");
  EXPECT_STREQ(dsp::isa_name(dsp::IsaTier::kAvx512), "avx512");
}

TEST(Dispatch, ParseNames) {
  EXPECT_EQ(dsp::isa_from_name("auto"), dsp::IsaRequest::kAuto);
  EXPECT_EQ(dsp::isa_from_name("scalar"), dsp::IsaRequest::kScalar);
  EXPECT_EQ(dsp::isa_from_name("sse2"), dsp::IsaRequest::kSse2);
  EXPECT_EQ(dsp::isa_from_name("avx2"), dsp::IsaRequest::kAvx2);
  EXPECT_EQ(dsp::isa_from_name("avx512"), dsp::IsaRequest::kAvx512);
  EXPECT_THROW(dsp::isa_from_name("avx512f"), std::invalid_argument);
  EXPECT_THROW(dsp::isa_from_name("AVX2"), std::invalid_argument);
  EXPECT_THROW(dsp::isa_from_name(""), std::invalid_argument);
}

TEST(Dispatch, Avx512TierOwnsOnlyTheBatchKernels) {
  // The AVX-512 table differs from the AVX2 one in its two batch kernels
  // only; on a CPU without AVX-512 both clamp to the same table.
  const dsp::KernelTable& avx2 = dsp::kernel_table(dsp::IsaTier::kAvx2);
  const dsp::KernelTable& avx512 = dsp::kernel_table(dsp::IsaTier::kAvx512);
  EXPECT_EQ(avx512.sgemm_bias, avx2.sgemm_bias);
  EXPECT_EQ(avx512.sgemm_bias_s8, avx2.sgemm_bias_s8);
  EXPECT_EQ(avx512.welford5_add, avx2.welford5_add);
  const bool own = dsp::detected_isa() == dsp::IsaTier::kAvx512;
  EXPECT_EQ(avx512.stft_power_batch != avx2.stft_power_batch, own);
  EXPECT_EQ(avx512.mel_bands_batch != avx2.mel_bands_batch, own);
}

TEST(Dispatch, ForcedTierClampsToDetected) {
  IsaGuard guard;
  dsp::set_active_isa(dsp::IsaRequest::kScalar);
  EXPECT_EQ(dsp::active_isa(), dsp::IsaTier::kScalar);
  // A request above the detected tier clamps down to it, never up.
  dsp::set_active_isa(dsp::IsaRequest::kAvx2);
  EXPECT_LE(static_cast<int>(dsp::active_isa()),
            static_cast<int>(dsp::detected_isa()));
  dsp::set_active_isa(dsp::IsaRequest::kAuto);
  EXPECT_EQ(dsp::active_isa(), dsp::detected_isa());
}

TEST(SimdGemm, F32BitIdenticalFuzzed) {
  Rng rng(2024);
  const dsp::KernelTable& scalar = dsp::kernel_table(dsp::IsaTier::kScalar);
  for (int round = 0; round < 30; ++round) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 12));
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const std::size_t offset = static_cast<std::size_t>(rng.uniform_int(0, 3));
    std::vector<float> a(m * k), b(k * n), bias(m);
    for (auto& x : a) x = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& x : b) x = static_cast<float>(rng.normal(0.0, 1.0));
    for (auto& x : bias) x = static_cast<float>(rng.normal(0.0, 1.0));
    std::vector<float> want(m * n);
    scalar.sgemm_bias(m, n, k, a.data(), b.data(), bias.data(),
                      want.data());
    for (const auto request : tiers::kDispatch) {
      const dsp::IsaTier tier = tiers::tier_of(request);
      const auto ao = offset_copy(a, offset);
      const auto bo = offset_copy(b, offset);
      std::vector<float> got(m * n + offset);
      dsp::kernel_table(tier).sgemm_bias(m, n, k, ao.data() + offset,
                                         bo.data() + offset, bias.data(),
                                         got.data() + offset);
      ASSERT_EQ(std::memcmp(want.data(), got.data() + offset,
                            m * n * sizeof(float)),
                0)
          << "tier " << dsp::isa_name(tier) << " m=" << m << " n=" << n
          << " k=" << k << " offset=" << offset;
    }
  }
}

TEST(SimdGemm, Int8BitIdenticalFuzzed) {
  Rng rng(1234);
  const dsp::KernelTable& scalar = dsp::kernel_table(dsp::IsaTier::kScalar);
  for (int round = 0; round < 20; ++round) {
    const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 60));
    // Odd k exercises the zero-padded trailing pair of the madd packing.
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(1, 33));
    std::vector<std::int8_t> a(m * k), b(k * n);
    std::vector<float> scales(m), bias(m);
    for (auto& x : a)
      x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& x : b)
      x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& x : scales)
      x = static_cast<float>(rng.uniform(0.001, 0.1));
    for (auto& x : bias) x = static_cast<float>(rng.normal(0.0, 1.0));
    const float b_scale = static_cast<float>(rng.uniform(0.001, 0.1));
    std::vector<float> want(m * n), got(m * n);
    scalar.sgemm_bias_s8(m, n, k, a.data(), scales.data(), b.data(),
                         b_scale, bias.data(), want.data());
    for (const auto request : tiers::kDispatch) {
      const dsp::IsaTier tier = tiers::tier_of(request);
      dsp::kernel_table(tier).sgemm_bias_s8(m, n, k, a.data(),
                                            scales.data(), b.data(), b_scale,
                                            bias.data(), got.data());
      ASSERT_EQ(std::memcmp(want.data(), got.data(), m * n * sizeof(float)),
                0)
          << "tier " << dsp::isa_name(tier) << " m=" << m << " n=" << n
          << " k=" << k;
    }
  }
}

namespace {

/// A frame sample whose magnitude spans 1e-150 .. 1e150, with +-0 and
/// subnormals mixed in: the batched power stays finite at n_fft <= 2048
/// (|X|^2 <= (n_fft * 1e150)^2), so every tier must agree bit for bit.
double wide_sample(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.05) return 0.0;
  if (u < 0.10) return -0.0;
  const double sign = rng.chance(0.5) ? -1.0 : 1.0;
  if (u < 0.15)
    return sign * std::numeric_limits<double>::denorm_min() *
           static_cast<double>(rng.uniform_int(1, 1 << 20));
  return sign * rng.uniform(1.0, 10.0) *
         std::pow(10.0, static_cast<double>(rng.uniform_int(-150, 149)));
}

}  // namespace

TEST(SimdFft, BatchedPowerBitIdenticalFuzzed) {
  // stft_power_batch on batches of 1 to kBatch real lanes, the spare
  // lanes repeating the last real one as a short last batch does: every
  // tier's power memcmp'd against the scalar tier, and each lane of it
  // against the per-frame planned real FFT of the windowed frame
  // (tests/dsp_oracle.hpp). Lanes mix plain normals with the wide
  // samples, and each frame sits at its own odd offset. The sizes reach
  // the block-wise stage pairs: one 256-point block (n 512), two blocks
  // and an odd stage (1024), blocks and a wide pair (2048), and blocks,
  // a wide pair and an odd stage (4096).
  constexpr std::size_t kBatch = dsp::StftPlan::kBatch;
  Rng rng(555);
  const dsp::KernelTable& scalar = dsp::kernel_table(dsp::IsaTier::kScalar);
  for (const std::size_t n :
       {1u, 2u, 4u, 8u, 16u, 32u, 64u, 512u, 1024u, 2048u, 4096u}) {
    dsp::StftParams p;
    p.n_fft = n;
    p.hop = n;
    const dsp::StftPlan plan(p);
    const dsp::StftTables tables = plan.tables();
    const beesim::oracle::RealFftPlan reference(n);
    const std::size_t bins = n / 2 + 1;
    for (std::size_t real = 1; real <= kBatch; ++real) {
      std::vector<std::vector<double>> lanes(real, std::vector<double>(n));
      for (std::size_t l = 0; l < real; ++l)
        for (auto& x : lanes[l])
          x = (real + l) % 2 == 0 ? wide_sample(rng) : rng.normal();
      std::vector<std::vector<double>> buffers;
      for (std::size_t l = 0; l < real; ++l)
        buffers.push_back(offset_copy(lanes[l], 1 + l));
      const double* frames[kBatch];
      for (std::size_t l = 0; l < kBatch; ++l)
        frames[l] = l < real ? buffers[l].data() + 1 + l : frames[real - 1];
      const std::size_t size = dsp::stft_scratch_size(n);
      std::vector<double> want(size);
      scalar.stft_power_batch(tables, frames, want.data());
      for (std::size_t l = 0; l < kBatch; ++l) {
        const std::vector<double>& frame = lanes[std::min(l, real - 1)];
        std::vector<double> windowed(n), power(bins);
        for (std::size_t i = 0; i < n; ++i)
          windowed[i] = frame[i] * tables.window[i];
        std::vector<beesim::oracle::Complex> scratch(reference.scratch_size());
        reference.power(windowed.data(), power.data(), scratch.data());
        for (std::size_t b = 0; b < bins; ++b)
          ASSERT_EQ(std::memcmp(&want[kBatch * b + l], &power[b],
                                sizeof(double)),
                    0)
              << "n=" << n << " real lanes " << real << " lane " << l
              << " bin " << b;
      }
      for (const auto request : tiers::kDispatch) {
        const dsp::IsaTier tier = tiers::tier_of(request);
        std::vector<double> got(size);
        dsp::kernel_table(tier).stft_power_batch(tables, frames, got.data());
        ASSERT_EQ(std::memcmp(want.data(), got.data(),
                              kBatch * bins * sizeof(double)),
                  0)
            << "tier " << dsp::isa_name(tier) << " n=" << n
            << " real lanes " << real;
      }
    }
  }
}

TEST(SimdMel, BandsBitIdenticalFuzzed) {
  // mel_bands_batch through BandedFilterbank on batches of 1 to kBatch
  // real frames, the spare lanes repeating the last one: every tier
  // memcmp'd against the scalar tier, each written lane against the
  // dense apply on that frame (tests/dsp_oracle.hpp), and the columns
  // past count left alone. Banks: the paper's 128 bands and a random one
  // with negative weights and interior zeros of both signs; the power
  // mixes wide magnitudes with zeros and subnormals.
  constexpr std::size_t kBatch = dsp::StftPlan::kBatch;
  IsaGuard guard;
  Rng rng(999);
  dsp::Matrix random_bank(9, 40);
  for (std::size_t m = 0; m < random_bank.rows(); ++m)
    for (std::size_t b = 4 * m; b < 4 * m + 9 && b < 40; ++b) {
      const double u = rng.uniform();
      random_bank(m, b) = u < 0.2 ? 0.0 : u < 0.3 ? -0.0 : rng.normal();
    }
  for (const dsp::Matrix& bank :
       {dsp::mel_filterbank(128, 2048, 22050.0), random_bank}) {
    const dsp::BandedFilterbank banded(bank);
    for (std::size_t count = 1; count <= kBatch; ++count) {
      dsp::Matrix power(bank.cols(), kBatch);  // bins x lanes
      for (std::size_t b = 0; b < power.rows(); ++b)
        for (std::size_t l = 0; l < kBatch; ++l)
          power(b, l) = l < count ? std::abs(wide_sample(rng))
                                  : power(b, count - 1);
      const std::vector<double> batch = offset_copy(power.storage(), 1);
      const double* lanes = batch.data() + 1;  // bin b, lane l: kBatch b + l
      const std::size_t stride = kBatch + 3;
      const auto run = [&](dsp::IsaRequest tier) {
        dsp::set_active_isa(tier);
        std::vector<double> out(banded.bands() * stride, -1.0);
        banded.apply(lanes, count, out.data() + 2, stride);
        return out;
      };
      const std::vector<double> want = run(dsp::IsaRequest::kScalar);
      const dsp::Matrix dense = beesim::oracle::apply_filterbank(bank, power);
      for (std::size_t m = 0; m < banded.bands(); ++m)
        for (std::size_t c = 0; c < stride; ++c) {
          const double got = want[m * stride + c];
          if (c >= 2 && c < 2 + count) {
            const double ref = dense(m, c - 2);
            ASSERT_EQ(std::memcmp(&got, &ref, sizeof(double)), 0)
                << "band " << m << " lane " << c - 2;
          } else {
            ASSERT_EQ(got, -1.0) << "band " << m << " column " << c;
          }
        }
      for (const auto tier : tiers::kDispatch) {
        const std::vector<double> got = run(tier);
        ASSERT_EQ(std::memcmp(want.data(), got.data(),
                              want.size() * sizeof(double)),
                  0)
            << dsp::isa_name(dsp::active_isa()) << " count " << count;
      }
    }
  }
}

TEST(SimdFft, FullPlanMatchesScalarTier) {
  // The whole frame loop (reflect-mapped edge frames, partial batches,
  // chunks across the pool) under each tier, memcmp'd against scalar.
  IsaGuard guard;
  Rng rng(777);
  for (const std::size_t n : {8u, 128u, 2048u}) {
    std::vector<double> signal(5 * n + 3);
    for (auto& x : signal) x = rng.normal(0.0, 1.0);
    dsp::StftParams p;
    p.n_fft = n;
    p.hop = n / 4;
    dsp::set_active_isa(dsp::IsaRequest::kScalar);
    const dsp::Matrix want = dsp::stft_power(signal, p);
    for (const auto tier : tiers::kDispatch) {
      dsp::set_active_isa(tier);
      const dsp::Matrix got = dsp::stft_power(signal, p);
      ASSERT_EQ(got.rows(), want.rows());
      ASSERT_EQ(got.cols(), want.cols());
      ASSERT_EQ(std::memcmp(want.data(), got.data(),
                            want.rows() * want.cols() * sizeof(double)),
                0)
          << dsp::isa_name(dsp::active_isa()) << " n=" << n;
    }
  }
}

namespace {

dsp::Welford5 fresh_welford() {
  dsp::Welford5 s;
  s.n = 0;
  for (int l = 0; l < 5; ++l) {
    s.mean[l] = 0.0;
    s.m2[l] = 0.0;
    s.sum[l] = 0.0;
    s.min[l] = std::numeric_limits<double>::infinity();
    s.max[l] = -std::numeric_limits<double>::infinity();
  }
  return s;
}

}  // namespace

TEST(SimdWelford, MatchesRunningStatsBitForBit) {
  Rng rng(4242);
  for (std::size_t count : {1u, 2u, 7u, 64u, 129u, 500u}) {
    std::vector<double> xs(count * 5);
    for (auto& x : xs) x = rng.normal(10.0, 25.0);
    // Oracle: five independent RunningStats fed sample by sample.
    RunningStats ref[5];
    for (std::size_t r = 0; r < count; ++r)
      for (int l = 0; l < 5; ++l) ref[l].add(xs[r * 5 + l]);
    for (const auto request : tiers::kDispatch) {
      const dsp::IsaTier tier = tiers::tier_of(request);
      dsp::Welford5 s = fresh_welford();
      dsp::kernel_table(tier).welford5_add(&s, xs.data(), count);
      EXPECT_EQ(s.n, count);
      for (int l = 0; l < 5; ++l) {
        const auto raw = ref[l].raw();
        EXPECT_EQ(s.mean[l], raw.mean)
            << "tier " << dsp::isa_name(tier) << " lane " << l;
        EXPECT_EQ(s.m2[l], raw.m2)
            << "tier " << dsp::isa_name(tier) << " lane " << l;
        EXPECT_EQ(s.sum[l], raw.sum)
            << "tier " << dsp::isa_name(tier) << " lane " << l;
        EXPECT_EQ(s.min[l], raw.min)
            << "tier " << dsp::isa_name(tier) << " lane " << l;
        EXPECT_EQ(s.max[l], raw.max)
            << "tier " << dsp::isa_name(tier) << " lane " << l;
      }
    }
  }
}

TEST(SimdWelford, SplitBatchesEqualOneBatch) {
  // Chunked feeding (the FleetColumns advance pattern) must agree with
  // one whole-buffer call under every tier.
  Rng rng(8);
  const std::size_t count = 300;
  std::vector<double> xs(count * 5);
  for (auto& x : xs) x = rng.normal(0.0, 3.0);
  for (const auto request : tiers::kDispatch) {
    const dsp::IsaTier tier = tiers::tier_of(request);
    const dsp::KernelTable& kt = dsp::kernel_table(tier);
    dsp::Welford5 whole = fresh_welford();
    kt.welford5_add(&whole, xs.data(), count);
    dsp::Welford5 split = fresh_welford();
    kt.welford5_add(&split, xs.data(), 128);
    kt.welford5_add(&split, xs.data() + 128 * 5, 128);
    kt.welford5_add(&split, xs.data() + 256 * 5, count - 256);
    EXPECT_EQ(std::memcmp(&whole, &split, sizeof whole), 0)
        << "tier " << dsp::isa_name(tier);
  }
}

TEST(SimdFleet, AdvanceBitIdenticalAcrossTiers) {
  // End-to-end: the vectorized FleetColumns advance loop produces the
  // same sweep points under forced-scalar and auto dispatch.
  IsaGuard guard;
  const core::LargeScaleSimulator sim(core::FleetParams::paper_default());
  const std::vector<int> counts = {50, 120, 300, 701};
  dsp::set_active_isa(dsp::IsaRequest::kScalar);
  core::FleetColumns scalar_cols = core::FleetColumns::start(counts, 7, 40);
  sim.advance(scalar_cols, 0, 1);
  dsp::set_active_isa(dsp::IsaRequest::kAuto);
  core::FleetColumns simd_cols = core::FleetColumns::start(counts, 7, 40);
  sim.advance(simd_cols, 0, 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const core::SweepPoint a = scalar_cols.point(i);
    const core::SweepPoint b = simd_cols.point(i);
    EXPECT_EQ(a.servers_used, b.servers_used);
    const auto ra = a.total_energy.raw();
    const auto rb = b.total_energy.raw();
    EXPECT_EQ(ra.n, rb.n);
    EXPECT_EQ(ra.mean, rb.mean);
    EXPECT_EQ(ra.m2, rb.m2);
    EXPECT_EQ(ra.min, rb.min);
    EXPECT_EQ(ra.max, rb.max);
    const auto la = a.lost_clients.raw();
    const auto lb = b.lost_clients.raw();
    EXPECT_EQ(la.mean, lb.mean);
    EXPECT_EQ(la.m2, lb.m2);
  }
}
