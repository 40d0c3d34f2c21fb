#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace e2e {

namespace {

/// 1-based nearest rank of percentile p among n samples.
std::size_t rank_of(double p, std::size_t n) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[rank_of(p, samples.size()) - 1];
}

std::size_t samples_above(double p, std::size_t n) {
  return n == 0 ? 0 : n - rank_of(p, n);
}

std::size_t min_samples_for(double p) {
  std::size_t n = 10;
  while (samples_above(p, n) < 10) ++n;
  return n;
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9})
    if (samples_above(p, n) >= 10) best = p;
  return best;
}

std::string supported_tail(std::size_t n) {
  const double p = highest_supported_percentile(n);
  if (p == 0) return "no tail";
  char label[32];
  std::snprintf(label, sizeof label, "up to p%g", p);
  return label;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0) || !std::isfinite(v)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

bool valid_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

std::vector<std::string> self_test() {
  std::vector<std::string> failures;
  const auto expect = [&failures](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  const auto near = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
  };

  // Percentile rule: p90 needs 100 samples, p99 needs 1000.
  expect(samples_above(90, 100) == 10, "p90 of 100 has 10 samples above");
  expect(samples_above(90, 99) == 9, "p90 of 99 has 9 samples above");
  expect(min_samples_for(50) == 20, "p50 needs 20 samples");
  expect(min_samples_for(75) == 40, "p75 needs 40 samples");
  expect(min_samples_for(90) == 100, "p90 needs 100 samples");
  expect(min_samples_for(99) == 1000, "p99 needs 1000 samples");
  expect(highest_supported_percentile(19) == 0, "19 samples support none");
  expect(highest_supported_percentile(99) == 75, "99 samples support p75");
  expect(highest_supported_percentile(100) == 90, "100 samples support p90");
  expect(highest_supported_percentile(1000) == 99,
         "1000 samples support p99");
  std::vector<double> ramp;
  for (int i = 100; i >= 1; --i) ramp.push_back(i);
  expect(percentile(ramp, 90) == 90, "p90 of 1..100 is 90");
  expect(percentile(ramp, 50) == 50, "p50 of 1..100 is 50");
  expect(percentile(ramp, 100) == 100, "p100 is the maximum");
  expect(percentile({7.0}, 99) == 7.0, "percentile of one sample");
  expect(median({3, 1, 2}) == 2, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median");

  // Geometric mean.
  expect(near(geomean({2, 8}), 4), "geomean(2, 8) = 4");
  expect(near(geomean({1, 10, 100}), 10), "geomean(1, 10, 100) = 10");
  expect(near(geomean({5, 5, 5, 5}), 5), "geomean of equal values");
  expect(geomean({1, 0}) == 0, "geomean rejects zero");
  expect(geomean({}) == 0, "geomean of nothing");

  // Naming.
  expect(valid_name("search_robust"), "plain name is valid");
  expect(valid_name("sim.ns_per_event"), "dotted name is valid");
  expect(!valid_name("bad name"), "space is invalid");
  expect(!valid_name(".hidden"), "leading dot is invalid");
  expect(!valid_name(""), "empty name is invalid");
  for (const WorkloadSpec& w : workloads())
    expect(valid_name(w.name), "workload name '" + w.name + "'");
  for (const MetricSpec& m : end_to_end_metrics())
    expect(valid_name(m.name), "metric name '" + m.name + "'");
  for (const MetricSpec& m : per_layer_metrics())
    expect(valid_name(m.name), "metric name '" + m.name + "'");
  return failures;
}

}  // namespace e2e
