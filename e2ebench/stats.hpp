#pragma once

// Sample statistics the benchmark reports, kept apart so the self-test can
// check them in isolation.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`. Empty -> 0.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Samples strictly ranked above the nearest-rank `p` percentile of `n`.
[[nodiscard]] std::size_t samples_above(double p, std::size_t n);

/// Fewest samples for which percentile `p` has at least 10 samples above
/// it — the rule every reported tail percentile must meet.
[[nodiscard]] std::size_t min_samples_for(double p);

/// The highest of the standard percentiles (50, 75, 90, 95, 99, 99.9) that
/// has at least 10 of `n` samples above it; 0 when none does.
[[nodiscard]] double highest_supported_percentile(std::size_t n);

/// "up to p<percentile>" for highest_supported_percentile(n), or "no tail".
[[nodiscard]] std::string supported_tail(std::size_t n);

[[nodiscard]] double median(std::vector<double> samples);

/// Geometric mean of positive values. Empty or non-positive input -> 0.
[[nodiscard]] double geomean(const std::vector<double>& values);

/// True for names made only of [A-Za-z0-9_.-], at most 64 long, starting
/// with a letter or digit.
[[nodiscard]] bool valid_name(std::string_view name);

/// Runs the checks of the functions above and of every metric and workload
/// name the benchmark prints. Returns the failures, one line each.
[[nodiscard]] std::vector<std::string> self_test();

}  // namespace e2e
