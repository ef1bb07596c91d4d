#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <thread>
#include <vector>

#include "dsp/dispatch.hpp"
#include "ml/gemm.hpp"
#include "ml/layers.hpp"
#include "ml/network.hpp"
#include "ml/precision.hpp"
#include "ml/tensor.hpp"
#include "tiers.hpp"
#include "util/rng.hpp"

// Properties of the int8 inference type: symmetric quantization with
// bounded roundtrip error, and the layer forward paths that consume it.
// The precision is an argument of each forward call, so networks at
// different precisions can run side by side in one process.

namespace ml = beesim::ml;
namespace dsp = beesim::dsp;
namespace tiers = beesim::tiers;
using beesim::util::Rng;

namespace {

/// A small queen CNN and a fixed two-clip input for it.
ml::Network queen_net() {
  Rng rng(5);
  return ml::make_queen_cnn(rng, 4, 20);
}

ml::Tensor queen_input() {
  ml::Tensor input({2, 1, 20, 20});
  Rng rng(11);
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.normal(0.0, 1.0));
  return input;
}

// queen_net()'s logits on queen_input(), (clip, class) row-major. The
// int8 GEMM is exact integer arithmetic and the f32 kernels are
// bit-identical across dispatch tiers, so both hold on every tier.
const std::vector<float> kF32Logits = {0x1.5c09c6p+1f, 0x1.0fdab4p+2f,
                                       0x1.9f2782p+1f, 0x1.20476ep+2f};
const std::vector<float> kInt8Logits = {0x1.581be8p+1f, 0x1.0f2746p+2f,
                                        0x1.9901bp+1f, 0x1.20244ep+2f};

std::vector<float> logits(ml::Network& net, ml::Precision precision) {
  const ml::Tensor out = net.forward(queen_input(), false, precision);
  return {out.data(), out.data() + out.size()};
}

}  // namespace

TEST(Precision, Names) {
  EXPECT_EQ(ml::precision_from_name("f32"), ml::Precision::kF32);
  EXPECT_EQ(ml::precision_from_name("int8"), ml::Precision::kInt8);
  EXPECT_THROW(ml::precision_from_name("fp16"), std::invalid_argument);
  EXPECT_THROW(ml::precision_from_name("bf16"), std::invalid_argument);
  EXPECT_STREQ(ml::precision_name(ml::Precision::kF32), "f32");
  EXPECT_STREQ(ml::precision_name(ml::Precision::kInt8), "int8");
}

TEST(Int8, RowQuantizationRoundTripBounded) {
  Rng rng(77);
  const std::size_t rows = 7, cols = 53;
  std::vector<float> data(rows * cols);
  for (auto& x : data) x = static_cast<float>(rng.normal(0.0, 4.0));
  const auto q = ml::quantize_rows_s8(data.data(), rows, cols);
  ASSERT_EQ(q.values.size(), data.size());
  ASSERT_EQ(q.scales.size(), rows);
  const auto back = ml::dequantize_rows_s8(q, rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    float maxabs = 0.0f;
    for (std::size_t c = 0; c < cols; ++c)
      maxabs = std::max(maxabs, std::fabs(data[r * cols + c]));
    EXPECT_FLOAT_EQ(q.scales[r], maxabs / 127.0f);
    for (std::size_t c = 0; c < cols; ++c) {
      // Nearest rounding keeps each element within half a step.
      EXPECT_LE(std::fabs(back[r * cols + c] - data[r * cols + c]),
                q.scales[r] * 0.5f + 1e-7f)
          << "row " << r << " col " << c;
      EXPECT_GE(q.values[r * cols + c], -127);
      EXPECT_LE(q.values[r * cols + c], 127);
    }
  }
}

TEST(Int8, ZeroRowGetsZeroScale) {
  std::vector<float> data(8, 0.0f);
  const auto q = ml::quantize_rows_s8(data.data(), 2, 4);
  EXPECT_EQ(q.scales[0], 0.0f);
  EXPECT_EQ(q.scales[1], 0.0f);
  const auto back = ml::dequantize_rows_s8(q, 2, 4);
  for (float v : back) EXPECT_EQ(v, 0.0f);
}

TEST(Int8, TensorQuantizationRoundTripBounded) {
  Rng rng(13);
  std::vector<float> data(301);
  for (auto& x : data) x = static_cast<float>(rng.uniform(-6.0, 6.0));
  const auto q = ml::quantize_tensor_s8(data.data(), data.size());
  ASSERT_EQ(q.values.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const float back = static_cast<float>(q.values[i]) * q.scale;
    EXPECT_LE(std::fabs(back - data[i]), q.scale * 0.5f + 1e-7f);
  }
}

TEST(Int8, QuantizedGemmTracksF32) {
  // End-to-end error of quantize -> int8 GEMM -> dequantize against the
  // f32 GEMM stays within the linear error budget: each product's error
  // is bounded by half a step per operand, k products accumulate.
  Rng rng(2468);
  const std::size_t m = 6, n = 40, k = 30;
  std::vector<float> a(m * k), b(k * n), bias(m);
  for (auto& x : a) x = static_cast<float>(rng.normal(0.0, 1.0));
  for (auto& x : b) x = static_cast<float>(rng.normal(0.0, 1.0));
  for (auto& x : bias) x = static_cast<float>(rng.normal(0.0, 1.0));
  std::vector<float> want(m * n), got(m * n);
  ml::sgemm_bias(m, n, k, a.data(), b.data(), bias.data(), want.data());
  const auto qa = ml::quantize_rows_s8(a.data(), m, k);
  const auto qb = ml::quantize_tensor_s8(b.data(), b.size());
  ml::sgemm_bias_s8(m, n, k, qa.values.data(), qa.scales.data(),
                    qb.values.data(), qb.scale, bias.data(), got.data());
  for (std::size_t i = 0; i < m * n; ++i) {
    const float budget =
        static_cast<float>(k) *
            (qa.scales[i / n] * 0.5f * 127.0f * qb.scale +
             qb.scale * 0.5f * 127.0f * qa.scales[i / n]) +
        1e-4f;
    EXPECT_LE(std::fabs(got[i] - want[i]), budget) << i;
  }
  // And it should be a decent approximation in practice, not just within
  // the worst-case budget.
  double rms = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < m * n; ++i) {
    rms += (got[i] - want[i]) * (got[i] - want[i]);
    ref += want[i] * want[i];
  }
  EXPECT_LE(std::sqrt(rms / static_cast<double>(m * n)),
            0.05 * std::sqrt(ref / static_cast<double>(m * n)));
}

TEST(Precision, LinearForwardTracksF32) {
  Rng rng(100);
  ml::Linear layer(24, 10, rng);
  ml::Tensor input({5, 24});
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.normal(0.0, 1.0));

  const ml::Tensor f32_out =
      layer.forward(input, /*train=*/false, ml::Precision::kF32);
  const ml::Tensor s8_out = layer.forward(input, false, ml::Precision::kInt8);
  ASSERT_TRUE(f32_out.same_shape(s8_out));
  for (std::size_t i = 0; i < f32_out.size(); ++i)
    EXPECT_NEAR(s8_out[i], f32_out[i],
                0.05f * std::max(1.0f, std::fabs(f32_out[i])));
}

TEST(Precision, Conv2dForwardTracksF32) {
  Rng rng(200);
  ml::Conv2d layer(2, 4, 3, rng);
  ml::Tensor input({2, 2, 9, 9});
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.normal(0.0, 1.0));

  const ml::Tensor f32_out = layer.forward(input, false, ml::Precision::kF32);
  const ml::Tensor s8_out = layer.forward(input, false, ml::Precision::kInt8);
  ASSERT_TRUE(f32_out.same_shape(s8_out));
  for (std::size_t i = 0; i < f32_out.size(); ++i)
    EXPECT_NEAR(s8_out[i], f32_out[i],
                0.05f * std::max(1.0f, std::fabs(f32_out[i])));
}

TEST(Precision, TrainingIgnoresInferencePrecision) {
  // train=true must take the f32 path whatever precision is passed —
  // gradients are always f32.
  Rng rng(300);
  ml::Linear layer(8, 4, rng);
  ml::Tensor input({3, 8});
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.normal(0.0, 1.0));
  const ml::Tensor want =
      layer.forward(input, /*train=*/true, ml::Precision::kF32);
  const ml::Tensor got =
      layer.forward(input, /*train=*/true, ml::Precision::kInt8);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(want[i], got[i]);
}

TEST(Precision, QueenCnnLogitsArePinned) {
  // Golden logits in both precisions: an int8 pass that silently fell
  // back to f32 (or an f32 pass that quantized) would still track f32
  // within the tolerances above, but not reproduce these bits.
  const tiers::IsaGuard guard;
  for (const auto tier : tiers::kDispatch) {
    dsp::set_active_isa(tier);
    SCOPED_TRACE(dsp::isa_name(dsp::active_isa()));
    ml::Network net = queen_net();
    EXPECT_EQ(logits(net, ml::Precision::kF32), kF32Logits);
    EXPECT_EQ(logits(net, ml::Precision::kInt8), kInt8Logits);
    EXPECT_EQ(logits(net, ml::Precision::kF32), kF32Logits);
  }
}

TEST(Precision, ConcurrentTenantsKeepTheirOwnPrecision) {
  // Two tenants in one process, each with its own network, run f32 and
  // int8 inference at the same time. Each must reproduce its
  // single-thread logits bit for bit on every pass.
  ml::Network single = queen_net();
  const std::vector<float> want_f32 = logits(single, ml::Precision::kF32);
  const std::vector<float> want_int8 = logits(single, ml::Precision::kInt8);
  constexpr int kPasses = 25;
  const auto tenant = [](ml::Precision precision,
                         std::vector<std::vector<float>>& out) {
    ml::Network net = queen_net();
    for (int i = 0; i < kPasses; ++i) out.push_back(logits(net, precision));
  };
  std::vector<std::vector<float>> f32_runs;
  std::vector<std::vector<float>> int8_runs;
  {
    std::jthread f32_tenant(tenant, ml::Precision::kF32, std::ref(f32_runs));
    std::jthread int8_tenant(tenant, ml::Precision::kInt8,
                             std::ref(int8_runs));
  }  // both joined here
  ASSERT_EQ(f32_runs.size(), static_cast<std::size_t>(kPasses));
  ASSERT_EQ(int8_runs.size(), static_cast<std::size_t>(kPasses));
  for (int i = 0; i < kPasses; ++i) {
    EXPECT_EQ(f32_runs[i], want_f32) << "pass " << i;
    EXPECT_EQ(int8_runs[i], want_int8) << "pass " << i;
  }
}
