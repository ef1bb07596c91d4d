#include <gtest/gtest.h>

#include "hive/adaptive.hpp"
#include "hive/beehive.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace hive = beesim::hive;
namespace u = beesim::util;
using hive::AdaptiveController;
using hive::AdaptiveWakeupPolicy;
using Regime = hive::AdaptiveController::Regime;

// ------------------------------------------------------ AdaptiveController

TEST(AdaptiveController, StartsNormalAtBasePeriod) {
  AdaptiveController ctl{AdaptiveWakeupPolicy{}};
  EXPECT_EQ(ctl.regime(), Regime::kNormal);
  EXPECT_DOUBLE_EQ(ctl.current_period(), 10.0 * u::kMinute);
  EXPECT_EQ(ctl.transitions(), 0);
}

TEST(AdaptiveController, StepsDownAsBatteryDrains) {
  AdaptiveController ctl{AdaptiveWakeupPolicy{}};
  EXPECT_DOUBLE_EQ(ctl.update(0.80), 10.0 * u::kMinute);
  EXPECT_DOUBLE_EQ(ctl.update(0.40), 30.0 * u::kMinute);  // low
  EXPECT_EQ(ctl.regime(), Regime::kLow);
  EXPECT_DOUBLE_EQ(ctl.update(0.25), 2.0 * u::kHour);  // critical
  EXPECT_EQ(ctl.regime(), Regime::kCritical);
  EXPECT_EQ(ctl.transitions(), 2);
}

TEST(AdaptiveController, SkipsStraightToCriticalOnCollapse) {
  AdaptiveController ctl{AdaptiveWakeupPolicy{}};
  ctl.update(0.10);
  EXPECT_EQ(ctl.regime(), Regime::kCritical);
  EXPECT_EQ(ctl.transitions(), 1);
}

TEST(AdaptiveController, HysteresisPreventsChatter) {
  AdaptiveWakeupPolicy policy;
  AdaptiveController ctl{policy};
  ctl.update(0.40);  // -> low
  // Hovering just above the low threshold must NOT snap back...
  ctl.update(policy.low_soc + 0.01);
  EXPECT_EQ(ctl.regime(), Regime::kLow);
  // ...until the recovery margin is cleared.
  ctl.update(policy.low_soc + policy.recovery_margin + 0.01);
  EXPECT_EQ(ctl.regime(), Regime::kNormal);
  EXPECT_EQ(ctl.transitions(), 2);
}

TEST(AdaptiveController, CriticalRecoversThroughLowOrDirectly) {
  AdaptiveWakeupPolicy policy;
  AdaptiveController ctl{policy};
  ctl.update(0.05);  // critical
  // Partial recovery: critical -> low.
  ctl.update(policy.critical_soc + policy.recovery_margin + 0.01);
  EXPECT_EQ(ctl.regime(), Regime::kLow);
  ctl.update(0.05);  // back down
  // Full recovery: critical -> normal in one step.
  ctl.update(policy.low_soc + policy.recovery_margin + 0.05);
  EXPECT_EQ(ctl.regime(), Regime::kNormal);
}

TEST(AdaptiveController, RejectsInvalidPolicies) {
  AdaptiveWakeupPolicy bad;
  bad.low_period = bad.base_period / 2.0;  // must not shrink
  EXPECT_THROW(AdaptiveController{bad}, std::invalid_argument);
  bad = {};
  bad.critical_soc = bad.low_soc + 0.1;  // inverted thresholds
  EXPECT_THROW(AdaptiveController{bad}, std::invalid_argument);
}

TEST(AdaptiveController, RegimeNames) {
  EXPECT_STREQ(hive::to_string(Regime::kNormal), "normal");
  EXPECT_STREQ(hive::to_string(Regime::kCritical), "critical");
}

// --------------------------------------------- Adaptive beehive behaviour

namespace {

hive::SmartBeehive::Stats run_hive(bool adaptive, std::uint64_t seed,
                                   double days) {
  beesim::sim::Engine engine;
  hive::SmartBeehive::Config cfg;
  cfg.seed = seed;
  cfg.energy = hive::EnergyChainConfig::undersized(seed);
  if (adaptive) cfg.adaptive = AdaptiveWakeupPolicy{};
  hive::SmartBeehive beehive(engine, cfg, nullptr);
  engine.run_until(days * u::kDay);
  beehive.settle();
  return beehive.stats();
}

}  // namespace

TEST(AdaptiveBeehive, ReducesOutageOnTheUndersizedBank) {
  const auto fixed = run_hive(false, 13, 3.0);
  const auto adaptive = run_hive(true, 13, 3.0);
  ASSERT_GT(fixed.outage_time, u::kHour) << "test premise: fixed schedule "
                                            "must brown out at night";
  EXPECT_GT(adaptive.regime_transitions, 0);
  // Stretching wake-ups when the battery sags must cut the dead time.
  EXPECT_LT(adaptive.outage_time, fixed.outage_time * 0.6);
  // The price is fewer collected routines — that is the whole point.
  EXPECT_LT(adaptive.wakeups_attempted, fixed.wakeups_attempted);
}

TEST(AdaptiveBeehive, DoesNothingOnAHealthyChain) {
  beesim::sim::Engine engine;
  hive::SmartBeehive::Config cfg;
  cfg.seed = 14;
  cfg.energy = hive::EnergyChainConfig::nominal(cfg.seed);
  cfg.adaptive = AdaptiveWakeupPolicy{};
  hive::SmartBeehive beehive(engine, cfg, nullptr);
  engine.run_until(2.0 * u::kDay);
  beehive.settle();
  EXPECT_EQ(beehive.stats().regime_transitions, 0);
  EXPECT_DOUBLE_EQ(beehive.wakeup_period(), cfg.wakeup_period);
}
