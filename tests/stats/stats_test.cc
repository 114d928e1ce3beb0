#include "stats/stats.h"

#include <gtest/gtest.h>

namespace quicer::stats {
namespace {

TEST(Median, OddCount) { EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0); }

TEST(Median, EvenCountInterpolates) { EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5); }

TEST(Median, EmptyReturnsZero) { EXPECT_DOUBLE_EQ(Median({}), 0.0); }

TEST(Median, SingleElement) { EXPECT_DOUBLE_EQ(Median({42.0}), 42.0); }

TEST(Percentile, BoundsClampToMinMax) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
}

TEST(Percentile, LinearInterpolation) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 75), 7.5);
}

TEST(MeanStdDev, KnownValues) {
  std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_NEAR(StdDev(v), 2.138, 0.001);
}

TEST(StdDev, FewerThanTwoIsZero) {
  EXPECT_DOUBLE_EQ(StdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({5.0}), 0.0);
}

TEST(Summarize, ConsistentFields) {
  const Summary s = Summarize({1, 2, 3, 4, 5});
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
}

TEST(Summarize, EmptyIsAllZero) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
}

TEST(Cdf, AtIsMonotoneAndBounded) {
  Cdf cdf({1, 2, 2, 3, 10});
  EXPECT_DOUBLE_EQ(cdf.At(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.At(1.0), 0.2);
  EXPECT_DOUBLE_EQ(cdf.At(2.0), 0.6);
  EXPECT_DOUBLE_EQ(cdf.At(100.0), 1.0);
  double prev = 0.0;
  for (double x = 0; x < 12; x += 0.25) {
    const double p = cdf.At(x);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(Cdf, QuantileInvertsAt) {
  Cdf cdf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 10.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.0), 1.0);
}

TEST(Cdf, SampleLogXProducesRequestedPoints) {
  Cdf cdf({0.5, 1, 2, 4, 8, 16});
  const auto points = cdf.SampleLogX(0.1, 100.0, 20);
  ASSERT_EQ(points.size(), 20u);
  EXPECT_NEAR(points.front().first, 0.1, 1e-9);
  EXPECT_NEAR(points.back().first, 100.0, 1e-6);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].first, points[i - 1].first);
    EXPECT_GE(points[i].second, points[i - 1].second);
  }
}

}  // namespace
}  // namespace quicer::stats
