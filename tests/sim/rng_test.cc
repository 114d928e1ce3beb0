#include "sim/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

namespace quicer::sim {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// UniformInt(lo, hi) takes one Next() and returns lo + Next() % range,
// whatever the range: a power-of-two range (masked) and any other range
// (divided) must both match a twin generator's raw stream.
TEST(Rng, UniformIntEqualsModuloOfTwinStream) {
  const std::int64_t kTwoTo32 = std::int64_t{1} << 32;
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 0},        {0, 1},   {0, 63},          {0, 4095}, {0, 16383}, {0, kTwoTo32 - 1},
      {10, 12},      {0, 59},  {5, 5 + 1000002}, {-7, -7 + 63},     {-1000, -1000 + 59},
  };
  for (const auto& [lo, hi] : ranges) {
    SCOPED_TRACE(testing::Message() << "[" << lo << ", " << hi << "]");
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    Rng rng(41);
    Rng twin(41);
    for (int i = 0; i < 1000; ++i) {
      const std::int64_t expected =
          static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + twin.Next() % range);
      ASSERT_EQ(rng.UniformInt(lo, hi), expected) << "draw " << i;
    }
  }
}

TEST(Rng, UniformIntFullRangeReturnsRawNext) {
  Rng rng(43);
  Rng twin(43);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(rng.UniformInt(std::numeric_limits<std::int64_t>::min(),
                             std::numeric_limits<std::int64_t>::max()),
              static_cast<std::int64_t>(twin.Next()));
  }
}

// Golden draws of seed 1, recorded before the integer draws moved into the
// header: a change that shifts any stream fails here, not in an export.
TEST(Rng, SeedOneStreamsArePinned) {
  Rng next(1);
  EXPECT_EQ(next.Next(), 12966619160104079557ULL);
  EXPECT_EQ(next.Next(), 9600361134598540522ULL);
  EXPECT_EQ(next.Next(), 10590380919521690900ULL);
  EXPECT_EQ(next.Next(), 7218738570589545383ULL);

  Rng unit(1);
  EXPECT_EQ(unit.NextDouble(), 0.70292183315885048);
  EXPECT_EQ(unit.NextDouble(), 0.52043661993885693);
  EXPECT_EQ(unit.NextDouble(), 0.5741057000197225);
  EXPECT_EQ(unit.NextDouble(), 0.39132860204190445);

  Rng coin(1);
  std::string flips;
  for (int i = 0; i < 16; ++i) flips += coin.Bernoulli(0.3) ? '1' : '0';
  EXPECT_EQ(flips, "0000011000000000");
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, LogNormalMedianIsExpMu) {
  Rng rng(19);
  const int n = 100001;
  std::vector<double> values;
  values.reserve(n);
  for (int i = 0; i < n; ++i) values.push_back(rng.LogNormal(std::log(5.0), 0.5));
  std::nth_element(values.begin(), values.begin() + n / 2, values.end());
  EXPECT_NEAR(values[n / 2], 5.0, 0.15);
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, ForkIsDeterministicAndIndependentOfDraws) {
  Rng a(31);
  Rng b(31);
  // Consume some values from a only; forks must still match.
  for (int i = 0; i < 10; ++i) a.Next();
  Rng fork_a = a.Fork(5);
  Rng fork_b = b.Fork(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(fork_a.Next(), fork_b.Next());
}

TEST(Rng, ForksWithDifferentLabelsDiverge) {
  Rng rng(37);
  Rng f1 = rng.Fork(1);
  Rng f2 = rng.Fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1.Next() == f2.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

}  // namespace
}  // namespace quicer::sim
