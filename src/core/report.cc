#include "core/report.h"

#include <algorithm>
#include <cstdio>

#include "stats/stats.h"

namespace quicer::core {

void PrintTitle(const std::string& title) {
  const std::string bar(title.size() + 4, '=');
  std::printf("\n%s\n= %s =\n%s\n", bar.c_str(), title.c_str(), bar.c_str());
}

void PrintHeading(const std::string& heading) {
  std::printf("\n--- %s ---\n", heading.c_str());
}

std::string FormatMs(sim::Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", sim::ToMillis(d));
  return buf;
}

std::string FormatDouble(double value, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string RenderScatter(const std::vector<double>& values, double lo, double hi,
                          std::size_t width) {
  std::string strip(width, ' ');
  if (values.empty() || hi <= lo) return strip;
  std::vector<int> counts(width, 0);
  for (double v : values) {
    double frac = (v - lo) / (hi - lo);
    frac = std::clamp(frac, 0.0, 1.0);
    std::size_t cell = static_cast<std::size_t>(frac * static_cast<double>(width - 1));
    ++counts[cell];
  }
  for (std::size_t i = 0; i < width; ++i) {
    if (counts[i] == 0) continue;
    if (counts[i] <= 2) {
      strip[i] = '.';
    } else if (counts[i] <= 8) {
      strip[i] = 'o';
    } else {
      strip[i] = '#';
    }
  }
  const double median = stats::Median(values);
  double frac = std::clamp((median - lo) / (hi - lo), 0.0, 1.0);
  strip[static_cast<std::size_t>(frac * static_cast<double>(width - 1))] = '|';
  return strip;
}

std::string RenderAccumulatorScatter(const stats::Accumulator& values, double lo, double hi,
                                     std::size_t width) {
  return RenderScatter(values.samples(), lo, hi, width);
}

}  // namespace quicer::core
