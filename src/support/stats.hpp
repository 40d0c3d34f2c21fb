#pragma once

// Streaming and batch statistics.
//
// AutoMap evaluates each candidate mapping several times (the paper uses 7
// during search and 30/31 for finalists) because run-to-run variance is
// significant; these helpers compute the summary statistics the driver uses
// to compare candidates.

#include <cstddef>
#include <span>
#include <vector>

namespace automap {

/// Welford online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Half-width of an approximate 95 % confidence interval of the mean
  /// (normal approximation; adequate for the 7..31 sample counts used here).
  [[nodiscard]] double ci95_halfwidth() const;

  /// Merges another accumulator (parallel reduction friendly).
  void merge(const OnlineStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// p-th percentile (p in [0, 100]) by linear interpolation; requires a
/// non-empty sample set.
[[nodiscard]] double percentile(std::span<const double> samples, double p);

/// Geometric mean of strictly positive samples.
[[nodiscard]] double geometric_mean(std::span<const double> samples);

}  // namespace automap
