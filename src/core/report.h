// Plain-text report rendering for the benchmark binaries.
//
// Each bench regenerates one of the paper's tables/figures as text: headers,
// aligned rows, and ASCII scatter strips that mimic the per-measurement
// diamond plots (Fig 5/6/7/12/13).
#pragma once

#include <string>
#include <vector>

#include "sim/time.h"
#include "stats/accumulator.h"

namespace quicer::core {

/// Prints a boxed section title to stdout.
void PrintTitle(const std::string& title);

/// Prints a secondary heading.
void PrintHeading(const std::string& heading);

/// Formats a duration as milliseconds with one decimal.
std::string FormatMs(sim::Duration d);

/// Formats a double with the given precision.
std::string FormatDouble(double value, int precision = 1);

/// Renders a one-line ASCII scatter of `values` over [lo, hi]: each sample
/// becomes a diamond-ish marker; stacked samples darken the cell. The median
/// is marked with '|'.
std::string RenderScatter(const std::vector<double>& values, double lo, double hi,
                          std::size_t width = 60);

/// Scatter strip straight from a sweep point's accumulator (uses the
/// retained reservoir samples; renders an empty strip after overflow).
/// Distinctly named: an overload would be ambiguous for braced-init calls.
std::string RenderAccumulatorScatter(const stats::Accumulator& values, double lo, double hi,
                                     std::size_t width = 60);

}  // namespace quicer::core
