#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>

#include "audio/dataset.hpp"
#include "ml/costmodel.hpp"
#include "ml/layers.hpp"
#include "ml/metrics.hpp"
#include "ml/network.hpp"
#include "ml/svm.hpp"
#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace ml = beesim::ml;
constexpr ml::Precision kF32 = ml::Precision::kF32;

// ------------------------------------------------------------------- Tensor

TEST(Tensor, ShapeAndFill) {
  ml::Tensor t({2, 3}, 1.5f);
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.dim(0), 2u);
  EXPECT_FLOAT_EQ(t.at2(1, 2), 1.5f);
  t.fill(0.0f);
  EXPECT_FLOAT_EQ(t.at2(0, 0), 0.0f);
}

TEST(Tensor, FourDAccessRowMajor) {
  ml::Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 7.0f;
  EXPECT_FLOAT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7.0f);
}

TEST(Tensor, RejectsBadShapes) {
  EXPECT_THROW(ml::Tensor(std::vector<std::size_t>{}), std::invalid_argument);
  EXPECT_THROW(ml::Tensor({2, 0}), std::invalid_argument);
  EXPECT_THROW(ml::Tensor({1, 1, 1, 1, 1}), std::invalid_argument);
}

TEST(Tensor, BoundsChecking) {
  ml::Tensor t({2, 2});
  EXPECT_THROW(t.at2(2, 0), std::out_of_range);
  ml::Tensor t4({1, 1, 2, 2});
  EXPECT_THROW(t4.at4(0, 1, 0, 0), std::out_of_range);
  EXPECT_THROW(t.at4(0, 0, 0, 0), std::logic_error);  // wrong rank
}

// ------------------------------------------------------------------- Layers

TEST(ReLU, ForwardAndBackward) {
  ml::ReLU relu;
  ml::Tensor x({1, 4});
  x[0] = -1.0f; x[1] = 2.0f; x[2] = 0.0f; x[3] = -3.0f;
  const auto y = relu.forward(x, true, kF32);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  ml::Tensor g({1, 4}, 1.0f);
  const auto gx = relu.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 1.0f);
  EXPECT_FLOAT_EQ(gx[3], 0.0f);
}

TEST(ReLU, ForwardKeepsEveryBitPattern) {
  // Forward keeps x unless x < 0, which becomes +0: -0 and NaNs of
  // either sign (payload included) pass through unchanged. Each pattern
  // sits at several offsets so vectorized bodies and scalar tails both
  // see it.
  struct Case {
    std::uint32_t in, out;
  };
  const Case cases[] = {
      {0x00000000u, 0x00000000u},  // +0
      {0x80000000u, 0x80000000u},  // -0
      {0x7fc12345u, 0x7fc12345u},  // quiet NaN with a payload
      {0xffc54321u, 0xffc54321u},  // negative NaN
      {0x00000001u, 0x00000001u},  // +denormal
      {0x80000001u, 0x00000000u},  // -denormal
      {0x7f800000u, 0x7f800000u},  // +inf
      {0xff800000u, 0x00000000u},  // -inf
      {0x7f7fffffu, 0x7f7fffffu},  // FLT_MAX
      {0xff7fffffu, 0x00000000u},  // -FLT_MAX
  };
  constexpr std::size_t kCount = std::size(cases);
  ml::Tensor x({5, kCount + 1});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::bit_cast<float>(cases[i % kCount].in);
  ml::ReLU relu;
  const ml::Tensor y = relu.forward(x, false, kF32);
  ASSERT_TRUE(y.same_shape(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Case& c = cases[i % kCount];
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y[i]), c.out)
        << std::hex << "input 0x" << c.in << " at " << std::dec << i;
  }
}

TEST(MaxPool2, PicksMaximaAndRoutesGradient) {
  ml::MaxPool2 pool;
  ml::Tensor x({1, 1, 2, 2});
  x[0] = 1.0f; x[1] = 5.0f; x[2] = 3.0f; x[3] = 2.0f;
  const auto y = pool.forward(x, true, kF32);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  ml::Tensor g({1, 1, 1, 1}, 2.0f);
  const auto gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[1], 2.0f);  // gradient lands on the argmax only
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
}

TEST(Conv2d, IdentityKernelPassesThrough) {
  beesim::util::Rng rng(1);
  ml::Conv2d conv(1, 1, 3, rng);
  // Hand-set the kernel to a centered delta, zero bias: output == input.
  ml::Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(i) * 0.1f;
  // Overwrite weights via forward difference: build a fresh conv whose
  // weights we control through its public surface is not possible, so we
  // verify linearity instead: f(2x) == 2 f(x) for zero bias nets is not
  // guaranteed (bias), so check f(x+x') - f(x') is linear in x.
  const auto y1 = conv.forward(x, false, kF32);
  ml::Tensor x2 = x;
  for (std::size_t i = 0; i < x2.size(); ++i) x2[i] *= 3.0f;
  const auto y2 = conv.forward(x2, false, kF32);
  ml::Tensor zero({1, 1, 4, 4}, 0.0f);
  const auto y0 = conv.forward(zero, false, kF32);
  for (std::size_t i = 0; i < y1.size(); ++i)
    EXPECT_NEAR(y2[i] - y0[i], 3.0f * (y1[i] - y0[i]), 1e-4f);
}

/// Numerical gradient check on a tiny conv net: the analytic input
/// gradient must match finite differences.
TEST(Conv2d, GradientMatchesFiniteDifference) {
  beesim::util::Rng rng(3);
  ml::Conv2d conv(1, 2, 3, rng);
  ml::Tensor x({1, 1, 5, 5});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(rng.normal(0.0, 1.0));

  auto loss_of = [&](const ml::Tensor& input) {
    const auto y = conv.forward(input, false, kF32);
    double loss = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
      loss += 0.5 * static_cast<double>(y[i]) * static_cast<double>(y[i]);
    return loss;
  };

  // Analytic gradient.
  const auto y = conv.forward(x, true, kF32);
  ml::Tensor grad_y = y;  // dL/dy = y for L = 0.5*||y||^2
  const auto grad_x = conv.backward(grad_y);

  const float eps = 1e-3f;
  for (std::size_t i : {0u, 7u, 12u, 24u}) {
    ml::Tensor xp = x;
    ml::Tensor xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (loss_of(xp) - loss_of(xm)) / (2.0 * eps);
    EXPECT_NEAR(grad_x[i], numeric, 2e-2)
        << "input gradient mismatch at " << i;
  }
}

TEST(Linear, GradientMatchesFiniteDifference) {
  beesim::util::Rng rng(4);
  ml::Linear lin(6, 3, rng);
  ml::Tensor x({2, 6});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(rng.normal(0.0, 1.0));
  auto loss_of = [&](const ml::Tensor& input) {
    const auto y = lin.forward(input, false, kF32);
    double loss = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
      loss += 0.5 * static_cast<double>(y[i]) * static_cast<double>(y[i]);
    return loss;
  };
  const auto y = lin.forward(x, true, kF32);
  const auto grad_x = lin.backward(y);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    ml::Tensor xp = x;
    ml::Tensor xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double numeric = (loss_of(xp) - loss_of(xm)) / (2.0 * eps);
    EXPECT_NEAR(grad_x[i], numeric, 2e-2);
  }
}

TEST(SoftmaxCrossEntropy, PerfectPredictionHasLowLossAndSmallGrad) {
  ml::Tensor logits({1, 2});
  logits.at2(0, 0) = 10.0f;
  logits.at2(0, 1) = -10.0f;
  ml::Tensor grad;
  const float loss =
      ml::SoftmaxCrossEntropy::loss_and_grad(logits, {0}, grad);
  EXPECT_LT(loss, 1e-6f);
  EXPECT_NEAR(grad.at2(0, 0), 0.0f, 1e-6f);
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLog2Loss) {
  ml::Tensor logits({1, 2}, 0.0f);
  ml::Tensor grad;
  const float loss =
      ml::SoftmaxCrossEntropy::loss_and_grad(logits, {1}, grad);
  EXPECT_NEAR(loss, std::log(2.0f), 1e-6f);
  EXPECT_NEAR(grad.at2(0, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(grad.at2(0, 1), -0.5f, 1e-6f);
}

TEST(SoftmaxCrossEntropy, PredictTakesArgmax) {
  ml::Tensor logits({2, 3});
  logits.at2(0, 1) = 5.0f;
  logits.at2(1, 2) = 5.0f;
  const auto preds = ml::SoftmaxCrossEntropy::predict(logits);
  EXPECT_EQ(preds, (std::vector<std::size_t>{1, 2}));
}

// ------------------------------------------------------------------ Network

TEST(Network, LearnsLinearlySeparableToyProblem) {
  // Two 8x8 image classes: bright top half vs bright bottom half.
  std::vector<beesim::dsp::Matrix> images;
  std::vector<std::size_t> labels;
  beesim::util::Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    beesim::dsp::Matrix img(8, 8);
    const bool top = i % 2 == 0;
    for (std::size_t r = 0; r < 8; ++r)
      for (std::size_t c = 0; c < 8; ++c) {
        const bool bright = top ? r < 4 : r >= 4;
        img(r, c) = (bright ? 0.9 : 0.1) + rng.normal(0.0, 0.05);
      }
    images.push_back(img);
    labels.push_back(top ? 0 : 1);
  }
  beesim::util::Rng init(6);
  auto net = ml::make_queen_cnn(init, 4, 8);
  ml::TrainOptions opt;
  opt.epochs = 15;
  opt.learning_rate = 0.1f;
  const auto report = ml::train_classifier(net, images, labels, opt);
  EXPECT_GT(report.final_train_accuracy, 0.95f);
  // Loss should drop substantially.
  EXPECT_LT(report.epoch_loss.back(), report.epoch_loss.front() * 0.5f);
}

TEST(Network, ParameterCountIsPositiveAndStable) {
  beesim::util::Rng rng(7);
  auto net = ml::make_queen_cnn(rng, 8, 32);
  EXPECT_GT(net.parameter_count(), 1000u);
  EXPECT_EQ(net.layer_count(), 8u);
}

TEST(Network, ImagesToTensorValidates) {
  std::vector<beesim::dsp::Matrix> imgs{beesim::dsp::Matrix(4, 4),
                                        beesim::dsp::Matrix(5, 4)};
  EXPECT_THROW(ml::images_to_tensor(imgs), std::invalid_argument);
  EXPECT_THROW(ml::images_to_tensor({}), std::invalid_argument);
}

// ---------------------------------------------------------------------- SVM

TEST(Svm, SeparatesGaussianBlobs) {
  beesim::util::Rng rng(8);
  std::vector<std::vector<double>> x;
  std::vector<bool> y;
  for (int i = 0; i < 80; ++i) {
    const bool cls = i % 2 == 0;
    const double cx = cls ? 2.0 : -2.0;
    x.push_back({rng.normal(cx, 0.5), rng.normal(cx, 0.5)});
    y.push_back(cls);
  }
  ml::SvmClassifier::Params p;
  p.c = 10.0;
  p.gamma = 0.5;
  ml::SvmClassifier svm(p);
  svm.fit(x, y);
  EXPECT_TRUE(svm.trained());
  int correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (svm.predict(x[i]) == y[i]) ++correct;
  EXPECT_GE(correct, 78);
  // Fresh points.
  EXPECT_TRUE(svm.predict({2.2, 1.8}));
  EXPECT_FALSE(svm.predict({-2.2, -1.8}));
}

TEST(Svm, NonlinearXorNeedsRbf) {
  beesim::util::Rng rng(9);
  std::vector<std::vector<double>> x;
  std::vector<bool> y;
  for (int i = 0; i < 120; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    x.push_back({a, b});
    y.push_back(a * b > 0.0);  // XOR-style quadrants
  }
  ml::SvmClassifier::Params p;
  p.c = 50.0;
  p.gamma = 2.0;
  ml::SvmClassifier svm(p);
  svm.fit(x, y);
  int correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (svm.predict(x[i]) == y[i]) ++correct;
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(x.size()),
            0.9);
}

TEST(Svm, RejectsDegenerateInputs) {
  ml::SvmClassifier svm;
  EXPECT_THROW(svm.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(svm.fit({{1.0}, {2.0}}, {true, true}),
               std::invalid_argument);  // one class
  EXPECT_THROW(svm.fit({{1.0}, {2.0, 3.0}}, {true, false}),
               std::invalid_argument);  // ragged
  EXPECT_THROW(svm.decision({1.0}), std::logic_error);  // untrained
}

TEST(Svm, DecisionSignMatchesPrediction) {
  beesim::util::Rng rng(10);
  std::vector<std::vector<double>> x;
  std::vector<bool> y;
  for (int i = 0; i < 40; ++i) {
    const bool cls = i % 2 == 0;
    x.push_back({rng.normal(cls ? 1.5 : -1.5, 0.4)});
    y.push_back(cls);
  }
  ml::SvmClassifier::Params p;
  p.gamma = 1.0;
  ml::SvmClassifier svm(p);
  svm.fit(x, y);
  for (double v : {-2.0, -1.0, 1.0, 2.0})
    EXPECT_EQ(svm.predict({v}), svm.decision({v}) > 0.0);
}

TEST(StandardScaler, NormalizesColumns) {
  ml::StandardScaler scaler;
  scaler.fit({{0.0, 100.0}, {2.0, 300.0}, {4.0, 500.0}});
  const auto t = scaler.transform({2.0, 300.0});
  EXPECT_NEAR(t[0], 0.0, 1e-9);
  EXPECT_NEAR(t[1], 0.0, 1e-9);
  const auto hi = scaler.transform({4.0, 500.0});
  EXPECT_GT(hi[0], 1.0);
  EXPECT_THROW(scaler.transform(std::vector<double>{1.0}),
               std::invalid_argument);
}

// ------------------------------------------------------------------ Metrics

TEST(Metrics, ConfusionCountsAndScores) {
  const auto cm = ml::confusion({true, true, false, false, true},
                                {true, false, false, true, true});
  EXPECT_EQ(cm.true_positive, 2u);
  EXPECT_EQ(cm.false_positive, 1u);
  EXPECT_EQ(cm.true_negative, 1u);
  EXPECT_EQ(cm.false_negative, 1u);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(cm.precision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(cm.recall(), 2.0 / 3.0);
  EXPECT_NEAR(cm.f1(), 2.0 / 3.0, 1e-12);
}

TEST(Metrics, EmptyConfusionIsZeroSafe) {
  ml::ConfusionMatrix cm;
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(cm.precision(), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(), 0.0);
}

TEST(Metrics, AccuracyValidatesSizes) {
  EXPECT_THROW(ml::accuracy({1}, {1, 2}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(ml::accuracy({1, 2, 3}, {1, 2, 0}), 2.0 / 3.0);
}

// --------------------------------------------------------------- Cost model

TEST(CostModel, ResNetFlopsScaleQuadratically) {
  const double f100 = ml::resnet18_flops(100);
  const double f200 = ml::resnet18_flops(200);
  // Doubling the side roughly quadruples the convolutional work (the
  // ratio sits slightly under 4 because strided stages ceil-divide odd
  // feature-map sizes).
  EXPECT_GT(f200 / f100, 3.2);
  EXPECT_LT(f200 / f100, 4.4);
  EXPECT_GT(f100, 1e8);  // hundreds of MFLOPs at 100x100
}

TEST(CostModel, FlopsMonotoneInSide) {
  double prev = 0.0;
  for (std::size_t side : {32u, 64u, 100u, 150u, 224u}) {
    const double f = ml::resnet18_flops(side);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(CostModel, RpiCalibrationHitsTableOneAnchor) {
  // Energy at 100x100 must equal Table I's 94.8 J by construction.
  EXPECT_NEAR(ml::edge_cnn_prediction_energy(100), 94.8, 1e-6);
}

TEST(CostModel, CloudIsFasterAndMorePowerful) {
  const auto rpi = ml::rpi_cnn_compute();
  const auto cloud = ml::cloud_cnn_compute();
  EXPECT_GT(cloud.effective_flops_per_s, rpi.effective_flops_per_s * 10.0);
  EXPECT_GT(cloud.active_power, rpi.active_power);
  // Cloud inference at 100x100 costs Table II's 108 J.
  EXPECT_NEAR(cloud.energy_for(ml::resnet18_flops(100)), 108.0, 1e-6);
}

TEST(CostModel, SvmAndMelFrontendScales) {
  EXPECT_GT(ml::svm_flops(200, 128), ml::svm_flops(100, 128));
  EXPECT_GT(ml::mel_frontend_flops(10.0), ml::mel_frontend_flops(1.0));
  EXPECT_THROW(ml::mel_frontend_flops(0.0), std::invalid_argument);
}

// --------------------------------------- Fig 5 accuracy-resolution property

/// Parameterized resolution sweep on a small dataset: the CNN must be
/// usable at every Fig 5 image side (shape preserved through resize+GAP).
class ResolutionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ResolutionSweep, CnnTrainsAtEverySide) {
  const std::size_t side = GetParam();
  beesim::audio::DatasetParams params;
  params.count = 24;
  params.clip_seconds = 0.6;
  const auto ds = beesim::audio::generate_queen_dataset(params);
  std::vector<beesim::dsp::Matrix> images;
  std::vector<std::size_t> labels;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    images.push_back(ds.image(i, side));
    labels.push_back(ds.examples[i].queen_present ? 1u : 0u);
  }
  beesim::util::Rng rng(11);
  auto net = ml::make_queen_cnn(rng, 4, side);
  ml::TrainOptions opt;
  opt.epochs = 4;
  const auto report = ml::train_classifier(net, images, labels, opt);
  // Must at least beat random guessing on train data at useful sizes.
  EXPECT_GE(report.final_train_accuracy, 0.5f);
  EXPECT_EQ(report.epoch_loss.size(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Fig5Sides, ResolutionSweep,
                         ::testing::Values(20, 50, 100));
