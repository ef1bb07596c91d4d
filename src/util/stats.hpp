#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace beesim::util {

/// Streaming mean / variance / extrema (Welford). Used for routine-length
/// and routine-power statistics (paper Section IV reports mean, sigma).
class RunningStats {
 public:
  /// The accumulator fields as a flat trivially-copyable record, in the
  /// exact representation `add`/`merge` maintain (min/max keep their
  /// +/-infinity empty-state sentinels). The checkpoint layer
  /// (core/checkpoint.hpp) persists a statistic as these six fields —
  /// from_raw(raw()) is the identity, so a restored accumulator continues
  /// the exact Welford recurrence.
  struct Raw {
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  Raw raw() const noexcept;
  static RunningStats from_raw(const Raw& raw) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const noexcept;
  /// Sample (n-1) variance; 0 for fewer than 2 samples.
  double sample_variance() const noexcept;
  double stddev() const noexcept;
  double sample_stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile of a sample set (linear interpolation between order
/// statistics). q in [0, 1]. Returns 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// Fixed-width histogram over [lo, hi); out-of-range samples clamp into the
/// first/last bucket so nothing is silently dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x) noexcept;
  std::size_t bucket_count() const noexcept { return counts_.size(); }
  std::size_t count(std::size_t bucket) const { return counts_.at(bucket); }
  std::size_t total() const noexcept { return total_; }
  double bucket_low(std::size_t bucket) const;
  double bucket_high(std::size_t bucket) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace beesim::util
