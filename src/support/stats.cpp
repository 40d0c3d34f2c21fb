#include "src/support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "src/support/error.hpp"

namespace automap {

void OnlineStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::mean() const { return mean_; }

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const {
  AM_REQUIRE(count_ > 0, "min of empty accumulator");
  return min_;
}

double OnlineStats::max() const {
  AM_REQUIRE(count_ > 0, "max of empty accumulator");
  return max_;
}

double OnlineStats::ci95_halfwidth() const {
  if (count_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * n2 / (n1 + n2);
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double percentile(std::span<const double> samples, double p) {
  AM_REQUIRE(!samples.empty(), "percentile of empty sample set");
  AM_REQUIRE(p >= 0.0 && p <= 100.0, "percentile requires p in [0, 100]");
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double geometric_mean(std::span<const double> samples) {
  AM_REQUIRE(!samples.empty(), "geometric_mean of empty sample set");
  double log_sum = 0.0;
  for (double x : samples) {
    AM_REQUIRE(x > 0.0, "geometric_mean requires positive samples");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(samples.size()));
}

}  // namespace automap
