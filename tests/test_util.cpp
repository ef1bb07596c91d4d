#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace u = beesim::util;

// ---------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  u::Rng a(123);
  u::Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  u::Rng a(1);
  u::Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformStaysInUnitInterval) {
  u::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  u::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  u::Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasRoughlyCorrectMoments) {
  u::Rng rng(13);
  u::RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ChanceMatchesProbability) {
  u::Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  u::Rng a(5);
  u::Rng child = a.fork();
  // The child should not replay the parent's sequence.
  u::Rng fresh(5);
  fresh();  // consume the value that seeded the fork
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (child() == fresh()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForStreamIsDeterministicPerKey) {
  // Stateless stream derivation: the same (seed, stream) pair always
  // yields the same generator, independent of construction order.
  u::Rng a = u::Rng::for_stream(42, 7);
  u::Rng b = u::Rng::for_stream(42, 7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, ForStreamSeparatesStreamsAndSeeds) {
  u::Rng base = u::Rng::for_stream(42, 7);
  u::Rng other_stream = u::Rng::for_stream(42, 8);
  u::Rng other_seed = u::Rng::for_stream(43, 7);
  int stream_equal = 0;
  int seed_equal = 0;
  for (int i = 0; i < 64; ++i) {
    const auto x = base();
    if (x == other_stream()) ++stream_equal;
    if (x == other_seed()) ++seed_equal;
  }
  EXPECT_LT(stream_equal, 2);
  EXPECT_LT(seed_equal, 2);
}

// -------------------------------------------------------------------- Stats

TEST(RunningStats, EmptyIsZero) {
  u::RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  u::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // population variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  u::Rng rng(19);
  u::RunningStats all;
  u::RunningStats left;
  u::RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 1.5);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, RawRoundtripIsExact) {
  // from_raw(raw()) is the identity, empty-state sentinels included, and
  // the restored accumulator continues the same recurrence: the checkpoint
  // layer stores every statistic this way.
  const auto same = [](const u::RunningStats& a, const u::RunningStats& b) {
    const u::RunningStats::Raw x = a.raw();
    const u::RunningStats::Raw y = b.raw();
    EXPECT_EQ(x.n, y.n);
    EXPECT_EQ(std::memcmp(&x.mean, &y.mean, sizeof x.mean), 0);
    EXPECT_EQ(std::memcmp(&x.m2, &y.m2, sizeof x.m2), 0);
    EXPECT_EQ(std::memcmp(&x.sum, &y.sum, sizeof x.sum), 0);
    EXPECT_EQ(std::memcmp(&x.min, &y.min, sizeof x.min), 0);
    EXPECT_EQ(std::memcmp(&x.max, &y.max, sizeof x.max), 0);
  };
  u::RunningStats filled;
  u::Rng rng(5);
  for (int i = 0; i < 37; ++i) filled.add(rng.uniform(-3.0, 9.0));
  for (u::RunningStats original : {filled, u::RunningStats{}}) {
    SCOPED_TRACE(original.count() == 0 ? "empty" : "filled");
    u::RunningStats restored = u::RunningStats::from_raw(original.raw());
    same(restored, original);
    original.add(2.5);
    restored.add(2.5);
    same(restored, original);
  }
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(u::percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(u::percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(u::percentile(v, 1.0), 5.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(u::percentile(v, 0.25), 2.5);
}

TEST(Histogram, ClampsOutOfRange) {
  u::Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  h.add(5.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BucketEdges) {
  u::Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bucket_low(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_high(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_low(4), 8.0);
}

TEST(TrapezoidIntegral, LinearFunction) {
  std::vector<double> x{0.0, 1.0, 2.0, 3.0};
  std::vector<double> y{0.0, 1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(u::trapezoid_integral(x, y), 4.5);
}

TEST(TrapezoidIntegral, RejectsUnsortedX) {
  std::vector<double> x{0.0, 2.0, 1.0};
  std::vector<double> y{0.0, 0.0, 0.0};
  EXPECT_THROW(u::trapezoid_integral(x, y), std::invalid_argument);
}

// ---------------------------------------------------------------------- CSV

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(u::csv_escape("plain"), "plain");
  EXPECT_EQ(u::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(u::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream out;
  u::CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.field(std::string("x")).field(1.5);
  csv.end_row();
  EXPECT_EQ(out.str(), "a,b\nx,1.5\n");
}

// -------------------------------------------------------------------- Table

TEST(AsciiTable, RendersAlignedCells) {
  u::AsciiTable t({"Task", "Joules"});
  t.add_row({"Sleep", "111.6"});
  t.add_rule();
  t.add_row({"Total", "366.3"});
  const std::string s = t.render();
  EXPECT_NE(s.find("| Sleep |"), std::string::npos);
  EXPECT_NE(s.find("| Total |"), std::string::npos);
  // Rule before the total row plus top/header/bottom rules.
  int rules = 0;
  for (std::size_t pos = 0; (pos = s.find("+-", pos)) != std::string::npos;
       ++pos)
    ++rules;
  EXPECT_GE(rules, 4);
}

TEST(AsciiTable, RejectsOverlongRow) {
  u::AsciiTable t({"only"});
  EXPECT_THROW(t.add_row({"a", "b"}), std::invalid_argument);
}

TEST(AsciiTable, NumFormatsPrecision) {
  EXPECT_EQ(u::AsciiTable::num(1.234, 2), "1.23");
  EXPECT_EQ(u::AsciiTable::num(366.26, 1), "366.3");
}

// ------------------------------------------------------------------- Config

TEST(Config, ParsesKeyValueArgs) {
  const char* argv[] = {"prog", "clients=400", "rate=1.5", "on=true"};
  u::Config cfg(4, argv);
  EXPECT_EQ(cfg.get_int("clients", 0), 400);
  EXPECT_DOUBLE_EQ(cfg.get_double("rate", 0.0), 1.5);
  EXPECT_TRUE(cfg.get_bool("on", false));
}

TEST(Config, FallbacksForMissingKeys) {
  u::Config cfg;
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
  EXPECT_EQ(cfg.get_string("missing", "d"), "d");
}

TEST(Config, RejectsMalformedArgs) {
  const char* argv[] = {"prog", "no-equals"};
  EXPECT_THROW(u::Config(2, argv), std::invalid_argument);
}

TEST(Config, RejectsNonNumeric) {
  const char* argv[] = {"prog", "n=abc"};
  u::Config cfg(2, argv);
  EXPECT_THROW(cfg.get_int("n", 0), std::invalid_argument);
}

TEST(Config, RejectsIntegerOverflow) {
  // strtoll saturates at LLONG_MAX/LLONG_MIN with errno ERANGE; the old
  // parser swallowed that and handed benches a silently clamped cycle
  // count. Regression: out-of-range integers must throw.
  const char* argv[] = {"prog", "big=99999999999999999999",
                        "small=-99999999999999999999"};
  u::Config cfg(3, argv);
  EXPECT_THROW(cfg.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("small", 0), std::invalid_argument);
}

TEST(Config, RejectsDoubleOverflow) {
  // strtod overflow returns +/-HUGE_VAL with errno ERANGE — also an
  // error, not a value.
  const char* argv[] = {"prog", "huge=1e999", "neg=-1e999"};
  u::Config cfg(3, argv);
  EXPECT_THROW(cfg.get_double("huge", 0.0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("neg", 0.0), std::invalid_argument);
}

TEST(Config, AcceptsDenormalUnderflow) {
  // Underflow (ERANGE with a denormal-or-zero result) stays accepted —
  // 1e-320 is a usable value, not a parse error.
  const char* argv[] = {"prog", "tiny=1e-320"};
  u::Config cfg(2, argv);
  EXPECT_NO_THROW(cfg.get_double("tiny", 0.0));
}

TEST(Config, RejectsTrailingGarbageAfterNumber) {
  const char* argv[] = {"prog", "n=12x", "d=3.5q"};
  u::Config cfg(3, argv);
  EXPECT_THROW(cfg.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_double("d", 0.0), std::invalid_argument);
}

TEST(Config, TracksUnusedKeys) {
  const char* argv[] = {"prog", "used=1", "unused=2"};
  u::Config cfg(3, argv);
  (void)cfg.get_int("used", 0);
  const auto unused = cfg.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused.front(), "unused");
}

// -------------------------------------------------------------------- Units

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(u::watt_hours_to_joules(1.0), 3600.0);
  EXPECT_DOUBLE_EQ(u::joules_to_watt_hours(3600.0), 1.0);
  // The paper's 20000 mAh 5 V power bank: 100 Wh = 360 kJ.
  EXPECT_DOUBLE_EQ(u::mah_to_joules(20000.0, 5.0), 360000.0);
}

TEST(Units, Formatting) {
  EXPECT_EQ(u::format_joules(190.1), "190.1 J");
  EXPECT_EQ(u::format_joules(13744.0), "13.7 kJ");
  EXPECT_EQ(u::format_duration(89.0), "89.0 s");
  EXPECT_EQ(u::format_duration(600.0), "10.0 min");
  EXPECT_EQ(u::format_bytes(1536.0), "1.5 KB");
}

// ------------------------------------------------------------ parallel_for

#include <atomic>

#include "util/parallel.hpp"

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  u::parallel_for(hits.size(),
                  [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroAndOneElementRunInline) {
  int calls = 0;
  u::parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  u::parallel_for(1, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 0u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ResultsIndependentOfThreadCount) {
  auto compute = [](unsigned threads) {
    std::vector<double> out(200);
    u::parallel_for(
        out.size(),
        [&](std::size_t i) {
          u::Rng rng(1000 + i);  // per-index stream
          out[i] = rng.normal(0.0, 1.0) * static_cast<double>(i);
        },
        threads);
    return out;
  };
  const auto serial = compute(1);
  const auto parallel2 = compute(2);
  const auto parallel8 = compute(8);
  EXPECT_EQ(serial, parallel2);
  EXPECT_EQ(serial, parallel8);
}

TEST(ParallelFor, PropagatesFirstExceptionByIndex) {
  try {
    u::parallel_for(100, [](std::size_t i) {
      if (i == 17) throw std::runtime_error("seventeen");
      if (i == 63) throw std::runtime_error("sixty-three");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "seventeen");
  }
}

TEST(ParallelFor, RejectsNullFunction) {
  EXPECT_THROW(u::parallel_for(3, std::function<void(std::size_t)>{}),
               std::invalid_argument);
}

TEST(ParallelFor, DefaultThreadCountPositive) {
  EXPECT_GE(u::default_thread_count(), 1u);
}
