#include <gtest/gtest.h>

#include <cmath>

#include "audio/dataset.hpp"
#include "core/placement.hpp"
#include "core/scenario.hpp"
#include "des_oracle.hpp"
#include "device/calibration.hpp"
#include "device/routine.hpp"
#include "hive/beehive.hpp"
#include "ml/costmodel.hpp"
#include "ml/metrics.hpp"
#include "ml/network.hpp"
#include "ml/svm.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

// End-to-end flows across module boundaries: the pipelines the examples
// and benches are built on, exercised with small workloads.

namespace u = beesim::util;
using beesim::core::Placement;
using beesim::core::ServiceModel;

/// Audio synth -> mel features -> SVM: the full classical queen-detection
/// service must reach high accuracy on held-out data.
TEST(Pipeline, SvmQueenDetectionEndToEnd) {
  beesim::audio::DatasetParams params;
  params.count = 120;
  params.clip_seconds = 1.0;
  params.seed = 404;
  const auto ds = beesim::audio::generate_queen_dataset(params);
  const auto split = beesim::audio::split_dataset(ds, 0.3);

  std::vector<std::vector<double>> train_x;
  std::vector<bool> train_y;
  for (auto i : split.train) {
    train_x.push_back(ds.examples[i].features);
    train_y.push_back(ds.examples[i].queen_present);
  }
  beesim::ml::StandardScaler scaler;
  scaler.fit(train_x);

  beesim::ml::SvmClassifier::Params svm_params;  // paper hyperparameters
  svm_params.c = 20.0;
  svm_params.gamma = 0.01;  // scaled features need a wider kernel
  beesim::ml::SvmClassifier svm(svm_params);
  svm.fit(scaler.transform(train_x), train_y);

  std::vector<bool> predictions;
  std::vector<bool> actuals;
  for (auto i : split.test) {
    predictions.push_back(
        svm.predict(scaler.transform(ds.examples[i].features)));
    actuals.push_back(ds.examples[i].queen_present);
  }
  const auto cm = beesim::ml::confusion(predictions, actuals);
  EXPECT_GE(cm.accuracy(), 0.9) << "SVM queen detection degraded";
}

/// Audio synth -> mel image -> CNN: the deep-learning service must beat
/// chance comfortably on held-out data even with a small training run.
TEST(Pipeline, CnnQueenDetectionEndToEnd) {
  beesim::audio::DatasetParams params;
  params.count = 80;
  params.clip_seconds = 1.0;
  params.seed = 505;
  const auto ds = beesim::audio::generate_queen_dataset(params);
  const auto split = beesim::audio::split_dataset(ds, 0.25);

  const std::size_t side = 32;
  std::vector<beesim::dsp::Matrix> train_images;
  std::vector<std::size_t> train_labels;
  for (auto i : split.train) {
    train_images.push_back(ds.image(i, side));
    train_labels.push_back(ds.examples[i].queen_present ? 1u : 0u);
  }
  beesim::util::Rng rng(42);
  auto net = beesim::ml::make_queen_cnn(rng, 6, side);
  beesim::ml::TrainOptions opt;
  opt.epochs = 10;
  opt.learning_rate = 0.08f;
  beesim::ml::train_classifier(net, train_images, train_labels, opt);

  std::vector<beesim::dsp::Matrix> test_images;
  std::vector<std::size_t> test_labels;
  for (auto i : split.test) {
    test_images.push_back(ds.image(i, side));
    test_labels.push_back(ds.examples[i].queen_present ? 1u : 0u);
  }
  const double acc =
      beesim::ml::evaluate_classifier(net, test_images, test_labels);
  EXPECT_GE(acc, 0.75) << "CNN queen detection degraded";
}

/// The Fig 5 energy axis must be consistent with Table I and grow
/// quadratically across the sweep the bench prints.
TEST(Pipeline, Fig5EnergyCurveAnchorsAndShape) {
  const double e100 = beesim::ml::edge_cnn_prediction_energy(100);
  EXPECT_NEAR(e100, 94.8, 1e-6);
  const double e50 = beesim::ml::edge_cnn_prediction_energy(50);
  const double e200 = beesim::ml::edge_cnn_prediction_energy(200);
  EXPECT_NEAR(e200 / e100, 4.0, 0.5);
  EXPECT_NEAR(e100 / e50, 4.0, 0.6);
}

/// A smart beehive simulated for a day must consume roughly what the
/// Fig 3 average-power model predicts for its wake-up period.
TEST(CrossCheck, BeehiveDayMatchesFig3Prediction) {
  beesim::sim::Engine engine;
  beesim::hive::SmartBeehive::Config cfg;
  cfg.seed = 31337;
  cfg.energy = beesim::hive::EnergyChainConfig::nominal(cfg.seed);
  cfg.wakeup_period = 10.0 * u::kMinute;
  beesim::hive::SmartBeehive beehive(engine, cfg, nullptr);
  engine.run_until(1.0 * u::kDay);
  beehive.settle();
  const auto stats = beehive.stats();
  // The DES beehive runs the storage-upload routine (no AI service); the
  // Fig 3 raw model predicts its average power at this period. The Zero
  // monitor adds its constant draw on top.
  const double predicted =
      (beesim::device::average_power_at_period_raw(cfg.wakeup_period) +
       beesim::device::cal::kZeroMonitorPower) *
      u::kDay;
  EXPECT_NEAR(stats.consumed, predicted, predicted * 0.06);
}

/// Scenario tables, client specs, and the DES replay must agree on the
/// edge cost of a cycle — three independent code paths, one number.
TEST(CrossCheck, ThreeWaysToComputeTheEdgeCycleAgree) {
  for (auto service : {ServiceModel::kSvm, ServiceModel::kCnn}) {
    const double table = beesim::core::edge_cycle_energy(
        Placement::kEdgeCloud, service);
    const double client = beesim::core::ClientSpec::smart_beehive(
                              Placement::kEdgeCloud, service)
                              .cycle_energy();
    const auto des = beesim::oracle::des_replay_cycle(service, 1, 10);
    EXPECT_NEAR(table, client, 1e-9);
    EXPECT_NEAR(des.edge_energy, client, 0.5);
  }
}

/// The headline qualitative claim of the paper, end to end: cloudless is
/// better for small apiaries, edge+cloud wins only at scale with enough
/// slot parallelism.
TEST(Headline, PlacementFlipsWithScaleAndParallelism) {
  beesim::core::PlacementAdvisor::Options small;
  small.max_parallel = 10;
  beesim::core::PlacementAdvisor small_advisor(small);
  EXPECT_FALSE(small_advisor.compare(100).edge_cloud_wins);
  EXPECT_FALSE(small_advisor.compare(2000).edge_cloud_wins);

  beesim::core::PlacementAdvisor::Options big;
  big.max_parallel = 35;
  beesim::core::PlacementAdvisor big_advisor(big);
  EXPECT_FALSE(big_advisor.compare(200).edge_cloud_wins);
  EXPECT_TRUE(big_advisor.compare(630).edge_cloud_wins);
  EXPECT_TRUE(big_advisor.compare(1890).edge_cloud_wins);
}

/// Fig 2 in miniature: the degraded field chain must produce nightly
/// outages while the healthy chain powers through; both recover by day.
TEST(Headline, NightOutagesOnlyOnDegradedChain) {
  auto outage = [](bool degraded) {
    beesim::sim::Engine engine;
    beesim::hive::SmartBeehive::Config cfg;
    cfg.seed = 99;
    cfg.energy = degraded ? beesim::hive::EnergyChainConfig::degraded(99)
                          : beesim::hive::EnergyChainConfig::nominal(99);
    beesim::hive::SmartBeehive beehive(engine, cfg, nullptr);
    engine.run_until(3.0 * u::kDay);
    beehive.settle();
    return beehive.stats().outage_time;
  };
  EXPECT_DOUBLE_EQ(outage(false), 0.0);
  EXPECT_GT(outage(true), 4.0 * u::kHour);
}
