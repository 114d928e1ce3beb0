// Descriptive statistics used by the benchmark harness and the scan study.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace quicer::stats {

/// Median of `values` (linear interpolation between the two middle elements
/// for even sizes). Returns 0 for an empty input.
double Median(std::vector<double> values);

/// p-th percentile (p in [0,100]) with linear interpolation, matching
/// numpy.percentile's default. Returns 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 values.
double StdDev(const std::vector<double>& values);

double Min(const std::vector<double>& values);
double Max(const std::vector<double>& values);

/// Five-number-style summary for report rows.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
};

Summary Summarize(const std::vector<double>& values);

/// Bootstrap confidence interval for the median (percentile bootstrap with
/// `resamples` draws; deterministic in `seed`). Returns {lo, hi} at the
/// given confidence level — the percentile bands of Fig 9/15.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

Interval BootstrapMedianCI(const std::vector<double>& values, double confidence = 0.9,
                           int resamples = 500, std::uint64_t seed = 1);

/// Empirical CDF: sorted (value, cumulative probability) points.
class Cdf {
 public:
  explicit Cdf(std::vector<double> values);

  /// P(X <= x).
  double At(double x) const;

  /// Smallest value v with P(X <= v) >= q, q in (0, 1].
  double Quantile(double q) const;

  std::size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  /// Evaluates the CDF at `points` x-locations, equally spaced in log10 space
  /// between lo and hi (both > 0); used for the paper's log-x CDF figures.
  std::vector<std::pair<double, double>> SampleLogX(double lo, double hi,
                                                    std::size_t points) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace quicer::stats
