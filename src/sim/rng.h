// Deterministic pseudo-random number generation for simulations.
//
// Every experiment owns an Rng seeded from its configuration, so a run is a
// pure function of its parameters. The generator is xoshiro256**, seeded via
// splitmix64, which is fast and has no measurable bias for our use.
//
// Inline vs out of line. The integer draws — Next, NextDouble, UniformInt
// and Bernoulli — are defined in this header: they sit on per-call hot paths
// (the frontend certificate cache draws a machine on every connection, the
// prober and netem's loss processes draw per probe and per datagram), where
// an out-of-line call costs as much as the draw itself. The floating-point
// draws (Uniform, the normal family, Exponential), Fork and the constructor
// stay in rng.cc. Golden values in tests/sim/rng_test.cc pin the streams,
// so moving code between the two cannot shift one unnoticed.
#pragma once

#include <array>
#include <cstdint>

namespace quicer::sim {

/// Deterministic random number generator (xoshiro256**).
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with equal seeds produce
  /// identical streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Returns the next raw 64-bit value.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): 53 random bits scaled.
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi. Takes one
  /// Next() and returns lo + Next() % (hi - lo + 1); a power-of-two range
  /// takes the same value with a mask instead of a division, and the full
  /// 64-bit range returns the raw Next().
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    // Unsigned arithmetic: wraps where the signed form would overflow.
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    const std::uint64_t x = Next();
    if (range == 0) return static_cast<std::int64_t>(x);  // full 64-bit range
    const std::uint64_t offset = (range & (range - 1)) == 0 ? x & (range - 1) : x % range;
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Standard normal via Box-Muller (mean 0, stddev 1).
  double StandardNormal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Log-normal: exp(Normal(mu, sigma)). Median is exp(mu).
  double LogNormal(double mu, double sigma);

  /// Exponential with the given mean (> 0).
  double Exponential(double mean);

  /// Forks an independent child generator; deterministic in (seed, label).
  Rng Fork(std::uint64_t label) const;

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_ = 0;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace quicer::sim
