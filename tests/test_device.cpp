#include <gtest/gtest.h>

#include "device/calibration.hpp"
#include "device/profiles.hpp"
#include "device/routine.hpp"
#include "device/sim_device.hpp"
#include "sim/engine.hpp"

namespace dev = beesim::device;
namespace cal = beesim::device::cal;
namespace sim = beesim::sim;

// ----------------------------------------------------------------- TaskSpec

TEST(TaskSpec, NominalEnergyIsPowerTimesTime) {
  dev::TaskSpec t{"x", 10.0, 2.0, 0.0};
  EXPECT_DOUBLE_EQ(t.nominal_energy(), 20.0);
}

TEST(TaskSpec, JitterFreeTaskIsDeterministic) {
  dev::TaskSpec t{"x", 10.0, 2.0, 0.0};
  beesim::util::Rng rng(1);
  EXPECT_DOUBLE_EQ(t.sampled_duration(rng), 10.0);
}

TEST(TaskSpec, JitterVariesButStaysPositive) {
  dev::TaskSpec t{"x", 10.0, 2.0, 5.0};
  beesim::util::Rng rng(2);
  beesim::util::RunningStats s;
  for (int i = 0; i < 1000; ++i) {
    const double d = t.sampled_duration(rng);
    EXPECT_GE(d, 1.0);  // floor at 10 % of nominal
    s.add(d);
  }
  EXPECT_NEAR(s.mean(), 10.0, 0.5);
  EXPECT_GT(s.stddev(), 2.0);
}

TEST(TaskSequence, AggregatesDurationAndEnergy) {
  dev::TaskSequence seq{{"a", 5.0, 2.0, 0.0}, {"b", 10.0, 1.0, 0.0}};
  EXPECT_DOUBLE_EQ(dev::nominal_duration(seq), 15.0);
  EXPECT_DOUBLE_EQ(dev::nominal_energy(seq), 20.0);
}

// ----------------------------------------------------------------- Profiles

TEST(Profiles, Rpi3bPlusMatchesTableOne) {
  const auto p = dev::rpi3bplus_profile();
  EXPECT_DOUBLE_EQ(p.sleep_power, cal::kEdgeSleepPower);
  EXPECT_NEAR(p.task("wake_collect").nominal_energy(), 131.8, 1e-9);
  EXPECT_NEAR(p.task("svm_inference").nominal_energy(), 98.9, 1e-9);
  EXPECT_NEAR(p.task("cnn_inference").nominal_energy(), 94.8, 1e-9);
  EXPECT_NEAR(p.task("send_results").nominal_energy(), 3.0, 1e-9);
  EXPECT_NEAR(p.task("shutdown").nominal_energy(), 21.0, 1e-9);
  EXPECT_NEAR(p.task("send_audio").nominal_energy(), 37.3, 1e-9);
}

TEST(Profiles, CloudServerMatchesTableTwo) {
  const auto p = dev::cloud_server_profile();
  EXPECT_NEAR(p.idle_power, 44.6, 0.05);
  EXPECT_NEAR(p.task("receive_audio").nominal_energy(), 1032.0, 1e-6);
  EXPECT_NEAR(p.task("svm_inference").nominal_energy(), 6.3, 1e-9);
  EXPECT_NEAR(p.task("cnn_inference").nominal_energy(), 108.0, 1e-9);
}

TEST(Profiles, UnknownTaskThrows) {
  const auto p = dev::rpi_zero_profile();
  EXPECT_TRUE(p.has_task("sample_current"));
  EXPECT_FALSE(p.has_task("cnn_inference"));
  EXPECT_THROW(p.task("cnn_inference"), std::out_of_range);
}

// ---------------------------------------------------------------- SimDevice

TEST(SimDevice, SleepAccountsSleepPower) {
  sim::Engine engine;
  dev::SimDevice device(engine, dev::rpi3bplus_profile(), 1);
  device.enter_sleep();
  engine.run_until(100.0);
  device.meter().advance_to(100.0);
  EXPECT_NEAR(device.meter().total(), cal::kEdgeSleepPower * 100.0, 1e-9);
}

TEST(SimDevice, SequenceRunsTasksInOrderThenSleeps) {
  sim::Engine engine;
  dev::SimDevice device(engine, dev::rpi3bplus_profile(), 1);
  device.enter_sleep();
  // Strip jitter for exactness.
  dev::TaskSequence seq = dev::edge_routine(dev::Placement::kEdgeCloud,
                                            dev::ServiceModel::kNone);
  for (auto& t : seq) t.duration_stddev = 0.0;
  bool done = false;
  device.run_spec_sequence(seq, [&](sim::Engine&) { done = true; });
  EXPECT_TRUE(device.busy());
  engine.run_until(300.0);
  device.meter().advance_to(300.0);
  EXPECT_TRUE(done);
  EXPECT_FALSE(device.busy());
  EXPECT_EQ(device.sequences_completed(), 1u);
  // 64 + 15 + 9.9 active, remainder asleep.
  const double active = 64.0 + 15.0 + 9.9;
  const double expected = 131.8 + 37.3 + 21.0 +
                          cal::kEdgeSleepPower * (300.0 - active);
  EXPECT_NEAR(device.meter().total(), expected, 1e-6);
  EXPECT_NEAR(device.meter().in_state("send_audio"), 37.3, 1e-9);
}

TEST(SimDevice, RejectsConcurrentSequences) {
  sim::Engine engine;
  dev::SimDevice device(engine, dev::rpi3bplus_profile(), 1);
  device.enter_sleep();
  device.run_sequence({"wake_collect"});
  EXPECT_THROW(device.run_sequence({"shutdown"}), std::logic_error);
  EXPECT_THROW(device.enter_sleep(), std::logic_error);
  engine.run();
}

TEST(SimDevice, PowerOffZeroesDraw) {
  sim::Engine engine;
  dev::SimDevice device(engine, dev::rpi3bplus_profile(), 1);
  device.power_off();
  engine.run_until(50.0);
  device.meter().advance_to(50.0);
  EXPECT_DOUBLE_EQ(device.meter().total(), 0.0);
}

// ------------------------------------------------------------------ Routine

TEST(Routine, EdgeOnlySequenceHasServiceAndResults) {
  const auto seq = dev::edge_routine(dev::Placement::kEdgeOnly,
                                     dev::ServiceModel::kSvm);
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[0].name, "wake_collect");
  EXPECT_EQ(seq[1].name, "svm_inference");
  EXPECT_EQ(seq[2].name, "send_results");
  EXPECT_EQ(seq[3].name, "shutdown");
}

TEST(Routine, EdgeCloudSequenceUploadsInstead) {
  const auto seq = dev::edge_routine(dev::Placement::kEdgeCloud,
                                     dev::ServiceModel::kCnn);
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[1].name, "send_audio");
}

TEST(Routine, ToStringNames) {
  EXPECT_STREQ(dev::to_string(dev::ServiceModel::kSvm), "SVM");
  EXPECT_STREQ(dev::to_string(dev::Placement::kEdgeCloud), "edge+cloud");
}

// ------------------------------------------ Section IV routine calibration

TEST(RoutineCalibration, ReproducesSectionFourAverages) {
  const auto calib = dev::calibrate_routines(dev::beehive_uplink(),
                                             cal::kCalibrationRoutineCount,
                                             42);
  // Paper: 89 s mean, 3.5 s sigma, 190.1 J, 2.14 W.
  EXPECT_NEAR(calib.duration.mean(), cal::kRoutineDuration, 2.5);
  EXPECT_NEAR(calib.duration.sample_stddev(), cal::kRoutineDurationStddev,
              1.2);
  EXPECT_NEAR(calib.energy.mean(), cal::kRoutineEnergy, 6.0);
  EXPECT_NEAR(calib.mean_power.mean(), cal::kRoutinePower, 0.05);
}

TEST(RoutineCalibration, DeterministicForSeed) {
  const auto a = dev::calibrate_routines(dev::beehive_uplink(), 50, 9);
  const auto b = dev::calibrate_routines(dev::beehive_uplink(), 50, 9);
  EXPECT_DOUBLE_EQ(a.duration.mean(), b.duration.mean());
  EXPECT_DOUBLE_EQ(a.energy.sum(), b.energy.sum());
}

// --------------------------------------------------- Fig 3 average power

TEST(Fig3, AveragePowerDecreasesWithPeriod) {
  double prev = 1e9;
  for (double minutes : {5.0, 10.0, 15.0, 30.0, 60.0, 120.0}) {
    const double p = dev::average_power_at_period(minutes * 60.0);
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(Fig3, FiveMinutePointMatchesPaper) {
  EXPECT_NEAR(dev::average_power_at_period(300.0), cal::kFig3PowerAt5Min,
              0.02);
}

TEST(Fig3, ConvergesTowardSleepPower) {
  const double p = dev::average_power_at_period(8.0 * 3600.0);
  EXPECT_NEAR(p, cal::kEdgeSleepPower, 0.05);
}

TEST(Fig3, RawCurveExcludesOverhead) {
  const double with = dev::average_power_at_period(300.0);
  const double raw = dev::average_power_at_period_raw(300.0);
  EXPECT_NEAR(with - raw, cal::kCycleOverhead / 300.0, 1e-12);
}

TEST(Fig3, RejectsPeriodShorterThanRoutine) {
  EXPECT_THROW(dev::average_power_at_period(60.0), std::invalid_argument);
}
