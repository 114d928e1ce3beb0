#include "stats/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "sim/rng.h"

namespace quicer::stats {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  if (p <= 0.0) return *std::min_element(values.begin(), values.end());
  if (p >= 100.0) return *std::max_element(values.begin(), values.end());
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double mean = Mean(values);
  double sum_sq = 0.0;
  for (double v : values) sum_sq += (v - mean) * (v - mean);
  return std::sqrt(sum_sq / static_cast<double>(values.size() - 1));
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

Summary Summarize(const std::vector<double>& values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.min = Min(values);
  s.max = Max(values);
  s.p25 = Percentile(values, 25.0);
  s.median = Percentile(values, 50.0);
  s.p75 = Percentile(values, 75.0);
  s.mean = Mean(values);
  s.stddev = StdDev(values);
  return s;
}

Interval BootstrapMedianCI(const std::vector<double>& values, double confidence,
                           int resamples, std::uint64_t seed) {
  Interval interval;
  if (values.empty()) return interval;
  if (values.size() == 1) {
    interval.lo = interval.hi = values[0];
    return interval;
  }
  sim::Rng rng(seed);
  std::vector<double> medians;
  medians.reserve(static_cast<std::size_t>(resamples));
  std::vector<double> sample(values.size());
  for (int r = 0; r < resamples; ++r) {
    for (double& v : sample) {
      v = values[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(values.size()) - 1))];
    }
    medians.push_back(Median(sample));
  }
  const double alpha = (1.0 - confidence) / 2.0;
  interval.lo = Percentile(medians, alpha * 100.0);
  interval.hi = Percentile(std::move(medians), (1.0 - alpha) * 100.0);
  return interval;
}

Cdf::Cdf(std::vector<double> values) : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::At(double x) const {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double Cdf::Quantile(double q) const {
  if (sorted_.empty()) return 0.0;
  if (q <= 0.0) return sorted_.front();
  if (q >= 1.0) return sorted_.back();
  const std::size_t index =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted_.size()))) - 1;
  return sorted_[std::min(index, sorted_.size() - 1)];
}

std::vector<std::pair<double, double>> Cdf::SampleLogX(double lo, double hi,
                                                       std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (points < 2 || lo <= 0.0 || hi <= lo) return out;
  out.reserve(points);
  const double log_lo = std::log10(lo);
  const double log_hi = std::log10(hi);
  for (std::size_t i = 0; i < points; ++i) {
    const double frac = static_cast<double>(i) / static_cast<double>(points - 1);
    const double x = std::pow(10.0, log_lo + frac * (log_hi - log_lo));
    out.emplace_back(x, At(x));
  }
  return out;
}

}  // namespace quicer::stats
