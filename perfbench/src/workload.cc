#include "workload.h"

namespace perfbench {

void AddSweepResult(Digest& digest, const quicer::core::SweepResult& result) {
  for (const quicer::core::PointSummary& point : result.points) {
    digest.Add(point.point.index);
    for (const quicer::core::MetricSeries& series : point.metrics) {
      digest.Add(series.aborted);
      digest.Add(series.skipped);
      if (series.mode == quicer::core::MetricMode::kTrace) {
        digest.Add(series.trace.size());
        for (double v : series.trace) digest.AddDouble(v);
      } else {
        digest.Add(series.summary.count());
        if (series.summary.count() == 0) continue;
        digest.AddDouble(series.summary.min());
        digest.AddDouble(series.summary.max());
        digest.AddDouble(series.summary.mean());
      }
    }
  }
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL +
                    0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void CounterFold::Fold(const quicer::core::SweepResult& result) {
  for (const auto& [name, value] : result.telemetry.counters) {
    if (quicer::obs::MergeModeForName(name) == quicer::obs::MergeMode::kMax) {
      std::uint64_t& slot = values_[name];
      if (value > slot) slot = value;
    } else {
      values_[name] += value;
    }
  }
}

double CounterFold::Get(std::string_view name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : static_cast<double>(it->second);
}

double SelfNs(const SpanTotals& spans, const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : static_cast<double>(it->second.self_ns);
}

double TotalNs(const SpanTotals& spans, const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : static_cast<double>(it->second.total_ns);
}

}  // namespace perfbench
