#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace beesim::util {

void RunningStats::add(double x) noexcept {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

RunningStats::Raw RunningStats::raw() const noexcept {
  Raw raw;
  raw.n = n_;
  raw.mean = mean_;
  raw.m2 = m2_;
  raw.sum = sum_;
  raw.min = min_;
  raw.max = max_;
  return raw;
}

RunningStats RunningStats::from_raw(const Raw& raw) noexcept {
  RunningStats stats;
  stats.n_ = static_cast<std::size_t>(raw.n);
  stats.mean_ = raw.mean;
  stats.m2_ = raw.m2;
  stats.sum_ = raw.sum;
  stats.min_ = raw.min;
  stats.max_ = raw.max;
  return stats;
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  m2_ += other.m2_ + delta * delta * n * m / (n + m);
  mean_ = (n * mean_ + m * other.mean_) / (n + m);
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::sample_variance() const noexcept {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::sample_stddev() const noexcept {
  return std::sqrt(sample_variance());
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  if (buckets == 0) throw std::invalid_argument("Histogram: zero buckets");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
}

void Histogram::add(double x) noexcept {
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::ptrdiff_t>(
      frac * static_cast<double>(counts_.size()));
  idx = std::clamp<std::ptrdiff_t>(
      idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bucket_low(std::size_t bucket) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bucket);
}

double Histogram::bucket_high(std::size_t bucket) const {
  return bucket_low(bucket + 1);
}

}  // namespace beesim::util
