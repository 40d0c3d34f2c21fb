#include "src/support/rng.hpp"

#include <cmath>

#include "src/support/error.hpp"

namespace automap {

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) {
  AM_REQUIRE(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t bound) {
  AM_REQUIRE(bound > 0, "uniform_index requires a positive bound");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::normal(double mean, double stddev) {
  AM_REQUIRE(stddev >= 0.0, "normal requires non-negative stddev");
  return mean + stddev * normal();
}

double Rng::lognormal_factor_slow(double sigma) {
  AM_REQUIRE(sigma >= 0.0, "lognormal_factor requires non-negative sigma");
  return std::exp(sigma * normal());
}

bool Rng::bernoulli(double p) { return uniform() < p; }

}  // namespace automap
