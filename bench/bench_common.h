// Shared helpers for the per-figure benchmark binaries.
#pragma once

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/report.h"
#include "core/sweep.h"
#include "registry.h"
#include "stats/stats.h"

namespace quicer::bench {

/// One sweep's full live spec (closures included), captured from a bench's
/// enumerate pass — the input of the scenario codec's export and label
/// resolution.
struct CapturedSpec {
  std::string bench;
  core::SweepSpec spec;
  std::size_t point_count = 0;
};

/// Runs the given benches as an enumerate pass — no experiments, no
/// exports — capturing every sweep's final spec (as handed to Run) and grid
/// size. Bench bodies still print their human-readable headings, so stdout
/// is parked on /dev/null for the duration. Shared by bench_suite
/// (export-grid, --grid, --points validation) and the grid round-trip test,
/// so both see identical capture semantics.
inline std::vector<CapturedSpec> CaptureSpecs(const std::vector<BenchInfo>& benches,
                                              int scale) {
  std::vector<CapturedSpec> specs;
  BenchContext context;
  context.scale = scale;
  const std::string* current_bench = nullptr;
  context.enumerate = [&](const core::SweepSpec& spec, std::size_t point_count) {
    specs.push_back({*current_bench, spec, point_count});
  };

  std::fflush(stdout);
  const int saved_stdout = dup(STDOUT_FILENO);
  const int null_fd = open("/dev/null", O_WRONLY);
  if (null_fd >= 0) dup2(null_fd, STDOUT_FILENO);
  for (const BenchInfo& bench : benches) {
    current_bench = &bench.name;
    bench.run(context);
  }
  std::fflush(stdout);
  if (saved_stdout >= 0) {
    dup2(saved_stdout, STDOUT_FILENO);
    close(saved_stdout);
  }
  if (null_fd >= 0) close(null_fd);
  return specs;
}

/// Repetitions per (client, mode) point. The paper uses 100; 25 keeps every
/// bench binary comfortably fast while the medians are already stable
/// (the simulator's only noise sources are signing jitter and quirk draws).
/// `bench_suite --scale` multiplies this via Scale().
inline constexpr int kRepetitions = 25;

/// --scale for an *experiment-driven* spec: multiplies its repetitions.
/// Runner-based sweeps whose repetition index is semantic (population rank,
/// study hour) skip it and scale only via axes. A spec copied after Scale
/// keeps the scaled count.
inline void Scale(core::SweepSpec& spec, const BenchContext& ctx) {
  spec.repetitions *= ctx.scale;
}

/// WFC/IACK medians of one printed row pair, in ms (negative when all runs
/// aborted).
struct RowResult {
  double median_wfc = -1.0;
  double median_iack = -1.0;
};

/// Prints the Fig 5/6/7-style WFC/IACK row pair from two sweep point
/// summaries (either may be null / all-aborted). Same format as
/// PrintClientRow, fed by the sweep engine instead of ad-hoc loops.
inline RowResult PrintSweepRowPair(const core::PointSummary* wfc,
                                   const core::PointSummary* iack,
                                   const std::string& label, double axis_lo,
                                   double axis_hi) {
  RowResult result;
  if (wfc != nullptr) result.median_wfc = wfc->MedianOrNegative();
  if (iack != nullptr) result.median_iack = iack->MedianOrNegative();

  auto print_one = [&](const char* mode, const core::PointSummary* summary, double median) {
    if (summary == nullptr || summary->all_aborted()) {
      std::printf("%10s %-5s  %s\n", label.c_str(), mode, "(all runs aborted)");
      return;
    }
    std::printf("%10s %-5s  [%s]  median %8.1f ms  (n=%zu)\n", label.c_str(), mode,
                core::RenderAccumulatorScatter(summary->values(), axis_lo, axis_hi).c_str(),
                median, summary->values().count());
  };
  print_one("WFC", wfc, result.median_wfc);
  print_one("IACK", iack, result.median_iack);
  return result;
}

/// Looks up the (client, http, behavior) pair of a sweep and prints it.
inline RowResult PrintSweepClientRow(const core::SweepResult& result,
                                     clients::ClientImpl impl, http::Version version,
                                     double axis_lo, double axis_hi) {
  auto find = [&](quic::ServerBehavior behavior) {
    return result.Find([&](const core::SweepPoint& p) {
      return p.config.client == impl && p.config.http == version &&
             p.config.behavior == behavior;
    });
  };
  return PrintSweepRowPair(find(quic::ServerBehavior::kWaitForCertificate),
                           find(quic::ServerBehavior::kInstantAck),
                           std::string(clients::Name(impl)), axis_lo, axis_hi);
}

inline void PrintAxis(double lo, double hi) {
  std::printf("%18sTTFB axis: %.0f ms %s %.0f ms\n", "", lo, std::string(44, '-').c_str(), hi);
}

}  // namespace quicer::bench
