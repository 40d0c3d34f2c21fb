#pragma once

// Deterministic random number generation.
//
// All stochastic behaviour in the library (execution-time noise, randomized
// search techniques) flows through Rng so that every experiment is exactly
// reproducible from a seed. The generator is xoshiro256**, seeded via
// SplitMix64, following the reference implementations by Blackman & Vigna.

#include <array>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <numbers>

namespace automap {

// The seed-derivation and noise-draw helpers below are defined inline: the
// simulator draws one noise factor per task per iteration per run, so they
// run tens of millions of times per search.

/// SplitMix64 step; used for seeding and for cheap hash mixing.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes a value through one SplitMix64 round (stateless convenience).
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t value) {
  std::uint64_t state = value;
  return splitmix64(state);
}

/// xoshiro256** PRNG with distribution helpers. Satisfies the
/// UniformRandomBitGenerator requirements so it can drive <random> if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next(); }

  /// Next raw 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t uniform_index(std::uint64_t bound);

  /// Standard normal via Box–Muller (cached second sample).
  double normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    // Box–Muller: two uniforms -> two independent standard normals.
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cached_normal_ = radius * std::sin(angle);
    has_cached_normal_ = true;
    return radius * std::cos(angle);
  }

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal multiplicative factor with median 1 and shape sigma:
  /// exp(sigma * N(0,1)). Models run-to-run execution-time variation.
  /// Requires sigma >= 0 (checked in the out-of-line slow path).
  double lognormal_factor(double sigma) {
    if (sigma == 0.0) return 1.0;
    return lognormal_factor_slow(sigma);
  }

  /// True with probability p.
  bool bernoulli(double p);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  double lognormal_factor_slow(double sigma);

  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace automap
