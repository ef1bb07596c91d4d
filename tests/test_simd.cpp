#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <vector>

#include "core/fleet_columns.hpp"
#include "core/network_sim.hpp"
#include "dsp/dispatch.hpp"
#include "dsp/fft.hpp"
#include "dsp/simd_kernels.hpp"
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
using beesim::util::Rng;
using beesim::util::RunningStats;

namespace {

/// Restores the active dispatch tier on scope exit so a forced tier never
/// leaks into other suites.
class IsaGuard {
 public:
  IsaGuard() : saved_(dsp::active_isa()) {}
  ~IsaGuard() {
    dsp::set_active_isa(static_cast<dsp::IsaRequest>(saved_));
  }

 private:
  dsp::IsaTier saved_;
};

const dsp::IsaTier kTiers[] = {dsp::IsaTier::kSse2, dsp::IsaTier::kAvx2};

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
  EXPECT_LE(static_cast<int>(tier), 2);
  EXPECT_STREQ(dsp::isa_name(dsp::IsaTier::kScalar), "scalar");
  EXPECT_STREQ(dsp::isa_name(dsp::IsaTier::kSse2), "sse2");
  EXPECT_STREQ(dsp::isa_name(dsp::IsaTier::kAvx2), "avx2");
}

TEST(Dispatch, ParseNames) {
  EXPECT_EQ(dsp::isa_from_name("auto"), dsp::IsaRequest::kAuto);
  EXPECT_EQ(dsp::isa_from_name("scalar"), dsp::IsaRequest::kScalar);
  EXPECT_EQ(dsp::isa_from_name("sse2"), dsp::IsaRequest::kSse2);
  EXPECT_EQ(dsp::isa_from_name("avx2"), dsp::IsaRequest::kAvx2);
  EXPECT_THROW(dsp::isa_from_name("avx512"), std::invalid_argument);
  EXPECT_THROW(dsp::isa_from_name(""), std::invalid_argument);
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
    for (dsp::IsaTier tier : kTiers) {
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
    for (dsp::IsaTier tier : kTiers) {
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

TEST(SimdFft, StageBitIdenticalFuzzed) {
  Rng rng(555);
  const dsp::KernelTable& scalar = dsp::kernel_table(dsp::IsaTier::kScalar);
  for (std::size_t n : {2u, 4u, 8u, 64u, 256u, 1024u}) {
    std::vector<std::complex<double>> base(n);
    for (auto& x : base)
      x = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    for (std::size_t len = 2; len <= n; len <<= 1) {
      std::vector<std::complex<double>> tw(len / 2);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const double a = -2.0 * 3.141592653589793 *
                         static_cast<double>(j) / static_cast<double>(len);
        tw[j] = {std::cos(a), std::sin(a)};
      }
      auto want = base;
      scalar.fft_stage(want.data(), n, len, tw.data());
      for (dsp::IsaTier tier : kTiers) {
        auto got = base;
        dsp::kernel_table(tier).fft_stage(got.data(), n, len, tw.data());
        ASSERT_EQ(std::memcmp(want.data(), got.data(),
                              n * sizeof(std::complex<double>)),
                  0)
            << "tier " << dsp::isa_name(tier) << " n=" << n
            << " len=" << len;
      }
    }
  }
}

TEST(SimdFft, FullPlanMatchesScalarTier) {
  IsaGuard guard;
  Rng rng(777);
  for (std::size_t n : {8u, 128u, 2048u}) {
    std::vector<std::complex<double>> input(n);
    for (auto& x : input)
      x = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    const dsp::FftPlan plan(n);
    dsp::set_active_isa(dsp::IsaRequest::kScalar);
    auto want = input;
    plan.forward(want.data());
    dsp::set_active_isa(dsp::IsaRequest::kAuto);
    auto got = input;
    plan.forward(got.data());
    ASSERT_EQ(std::memcmp(want.data(), got.data(),
                          n * sizeof(std::complex<double>)),
              0)
        << "n=" << n;
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
    for (dsp::IsaTier tier :
         {dsp::IsaTier::kScalar, dsp::IsaTier::kSse2, dsp::IsaTier::kAvx2}) {
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
  for (dsp::IsaTier tier :
       {dsp::IsaTier::kScalar, dsp::IsaTier::kSse2, dsp::IsaTier::kAvx2}) {
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
