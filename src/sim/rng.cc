#include "sim/rng.h"

#include <cmath>

namespace quicer::sim {
namespace {

std::uint64_t SplitMix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = SplitMix64(s);
  // Avoid the all-zero state, which xoshiro cannot escape.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

double Rng::StandardNormal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * StandardNormal(); }

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

double Rng::Exponential(double mean) {
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -mean * std::log(u);
}

Rng Rng::Fork(std::uint64_t label) const {
  // Mix the original seed with the label so forks are independent of how many
  // draws were taken from the parent.
  std::uint64_t s = seed_ ^ (label * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL);
  return Rng(SplitMix64(s));
}

}  // namespace quicer::sim
