// bench_suite — runs any subset of the registered figure benches through the
// sweep engine on the shared persistent thread pool, optionally as one shard
// of a multi-process run, and merges partial results back into the exports a
// single process would have written. A run splits across processes by
// points (--shard, --points) and by repetitions (--rep-range); `merge`
// recombines the partial files and checks that every (point, repetition)
// is counted exactly once.
//
// Grids are also first-class data (core/scenario.h): export-grid serializes
// any registered bench's sweeps as a scenario file, `run --grid` executes a
// (possibly hand-edited) scenario file through the identical enumerate →
// execute → merge pipeline — scenario authorship is a data task, not a C++
// task.
//
// lint:allow-file(ND002): the driver times sweeps and budgets with the wall
// clock; no wall-clock value reaches an exported byte.
//
//   bench_suite --list                 # names + descriptions
//   bench_suite                        # run everything
//   bench_suite --filter=fig1          # substring-select benches
//   bench_suite --threads=8            # pool size (QUICER_THREADS also works)
//   bench_suite --data-dir=out/        # per-sweep CSV + JSON exports
//   bench_suite --scale=4              # multiply repetitions, denser axes
//   bench_suite --progress             # per-sweep progress lines on stderr
//   bench_suite --budget-seconds=600   # suite-wide wall-clock ceiling
//   bench_suite --shard=0/4            # execute shard 0 of 4 (partial JSON)
//   bench_suite --points=3,17          # execute explicit point ids
//   bench_suite --rep-range=0:10       # execute a repetition window
//   bench_suite merge --out-dir=out/ PARTIAL.json...   # recombine shards
//
//   bench_suite export-grid [BENCH...] [--scale=N] [--out=FILE] [--check]
//   bench_suite run --grid=FILE [--data-dir=DIR] [--shard=I/N] [--rep-range=A:B]
//   bench_suite schema                 # scenario base-field table (markdown)
//
//   bench_suite --telemetry=FILE      # runtime counters -> per-sweep report
//   bench_suite --qlog-dir=DIR        # per-run qlog trace pairs
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "core/scenario.h"
#include "core/sweep_partial.h"
#include "core/thread_pool.h"
#include "obs/telemetry.h"
#include "registry.h"

namespace {

using quicer::bench::BenchContext;
using quicer::bench::BenchInfo;
using quicer::bench::Registry;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Creates --qlog-dir (so per-run traces have somewhere to land) or fails
/// loudly; an unwritable directory would silently drop every trace.
bool PrepareQlogDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create qlog dir '%s': %s\n", dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  return true;
}

int Usage(const char* argv0) {
  std::printf(
      "usage: %s [--list] [--filter=SUBSTR] [--threads=N] [--data-dir=DIR]\n"
      "          [--scale=N] [--progress] [--budget-seconds=N]\n"
      "          [--shard=I/N | --points=ID,ID,...] [--rep-range=A:B]\n"
      "          [--telemetry=FILE] [--qlog-dir=DIR]\n"
      "       %s merge [--out-dir=DIR] [--telemetry=FILE] PARTIAL.json...\n"
      "       %s export-grid [BENCH...] [--scale=N] [--out=FILE] [--check]\n"
      "       %s run --grid=FILE [--data-dir=DIR] [--threads=N] [--progress]\n"
      "              [--budget-seconds=N] [--shard=I/N | --points=IDS] [--rep-range=A:B]\n"
      "              [--telemetry=FILE] [--qlog-dir=DIR]\n"
      "       %s schema\n"
      "  --list        list registered benches and exit\n"
      "  --filter=S    run only benches whose name contains S\n"
      "  --threads=N   size of the shared thread pool (default: hardware)\n"
      "  --data-dir=D  write per-sweep CSV/JSON into D (default: QUICER_DATA_DIR)\n"
      "  --scale=N     multiply experiment-sweep repetitions by N and widen\n"
      "                RTT/delta axes (paper grids: --scale=4; default 1)\n"
      "  --progress    per-sweep progress lines on stderr (points done,\n"
      "                runs/sec) via the SweepObserver hook\n"
      "  --budget-seconds=N  suite-wide wall-clock ceiling: once exceeded,\n"
      "                remaining sweep points are budget-skipped and listed\n"
      "                in partial-result JSON for a later --points rerun\n"
      "  --shard=I/N   execute only points with id %% N == I (I in 0..N-1);\n"
      "                every sweep then writes a partial-result JSON instead\n"
      "                of its final exports\n"
      "  --points=IDS  execute only the listed point ids (comma-separated),\n"
      "                e.g. the budget_skipped_points of an earlier partial;\n"
      "                ids are validated against the enumerated grids\n"
      "  --rep-range=A:B  execute only repetitions [A, B) of the selected\n"
      "                points (B omitted or 0 = to the end); windows of one\n"
      "                point merge back bit-identically\n"
      "  --telemetry=F  enable runtime counters (event queue, arena, netem\n"
      "                drops, recovery, phase timers) and write the per-sweep\n"
      "                telemetry report to F; counting never perturbs the\n"
      "                simulated runs, so exports stay byte-identical\n"
      "  --qlog-dir=D  write every run's qlog trace pair (client + server,\n"
      "                with recovery/drop/connectivity events) into D as\n"
      "                <sweep>_p<point>_r<rep>_{client,server}.qlog\n"
      "  merge         parse partial-result JSONs, merge per sweep name and\n"
      "                write final CSV/JSON exports (byte-identical to a\n"
      "                single-process run) into --out-dir (default \".\");\n"
      "                fails when a (point, repetition) is covered twice, or\n"
      "                when an executed point misses repetitions\n"
      "  export-grid   serialize the named benches' sweeps (all benches when\n"
      "                none given) as a scenario file on stdout (no\n"
      "                experiments run); --check instead verifies the\n"
      "                export → parse → re-export round trip byte-identically\n"
      "  run --grid=F  execute the scenarios of file F (data-defined grids)\n"
      "                through the standard pipeline; exports are\n"
      "                byte-identical to the compiled-in run for unedited\n"
      "                export-grid output, and composable with --shard /\n"
      "                --rep-range / merge for edited grids\n"
      "  schema        print the scenario base-config field table (markdown,\n"
      "                generated from the codec's descriptor table)\n",
      argv0, argv0, argv0, argv0, argv0);
  return 2;
}

int RunMerge(int argc, char** argv) {
  std::string out_dir = ".";
  std::string telemetry_path;
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(std::strlen("--out-dir="));
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      telemetry_path = arg.substr(std::strlen("--telemetry="));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown merge option '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "merge: no partial-result files given\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create out dir '%s': %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  std::vector<quicer::core::SweepResult> merged;
  if (!quicer::core::MergeSweepPartialFiles(files, out_dir, stderr,
                                            telemetry_path.empty() ? nullptr : &merged)) {
    return 1;
  }
  if (telemetry_path.empty()) return 0;
  // A merge process does not know the bench labels, so they stay empty.
  std::vector<quicer::obs::SweepRecord> records;
  for (const quicer::core::SweepResult& result : merged) {
    if (result.telemetry.enabled) records.push_back(quicer::core::TelemetryRecordOf(result, ""));
  }
  return quicer::obs::WriteTelemetryReport(records, telemetry_path, stderr) ? 0 : 1;
}

/// Parses the value of a numeric `--name=value` option strictly: all of it
/// must be a number (an integer when T is) in [min, max]. Otherwise prints
/// why and returns false, and the caller exits 2 — a typo must not quietly
/// fall back to the default.
template <typename T>
bool ParseNumberOption(const std::string& arg, double min, double max, T& out) {
  constexpr bool kInteger = std::is_integral_v<T>;
  const char* text = arg.c_str() + arg.find('=') + 1;
  char* end = nullptr;
  errno = 0;
  const double value =
      kInteger ? static_cast<double>(std::strtoll(text, &end, 10)) : std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(value >= min && value <= max)) {
    std::fprintf(stderr, "invalid %s (expected %s in [%g, %g])\n", arg.c_str(),
                 kInteger ? "an integer" : "a number", min, max);
    return false;
  }
  out = static_cast<T>(value);
  return true;
}

/// --scale=N: the repetition multiplier.
bool ParseScale(const std::string& arg, int& scale) {
  return ParseNumberOption(arg, 1, 10000, scale);
}

/// --threads=N: sizes the shared pool, which reads QUICER_THREADS on first
/// use.
bool ParseThreads(const std::string& arg) {
  int threads = 0;
  if (!ParseNumberOption(arg, 1, 1024, threads)) return false;
  setenv("QUICER_THREADS", std::to_string(threads).c_str(), 1);
  return true;
}

bool ParseShard(const std::string& value, quicer::core::SweepShard& shard) {
  const std::size_t slash = value.find('/');
  if (slash == std::string::npos) return false;
  char* end = nullptr;
  const long index = std::strtol(value.c_str(), &end, 10);
  if (end != value.c_str() + slash) return false;
  const long count = std::strtol(value.c_str() + slash + 1, &end, 10);
  if (*end != '\0' || count < 1 || index < 0 || index >= count) return false;
  shard.index = static_cast<std::size_t>(index);
  shard.count = static_cast<std::size_t>(count);
  return true;
}

bool ParsePoints(const std::string& value, std::vector<std::size_t>& points) {
  const char* cursor = value.c_str();
  while (*cursor != '\0') {
    char* end = nullptr;
    const long id = std::strtol(cursor, &end, 10);
    if (end == cursor || id < 0) return false;
    points.push_back(static_cast<std::size_t>(id));
    cursor = *end == ',' ? end + 1 : end;
    if (*end != '\0' && *end != ',') return false;
  }
  return !points.empty();
}

bool ParseRepRange(const std::string& value, quicer::core::SweepShard& shard) {
  const std::size_t colon = value.find(':');
  if (colon == std::string::npos) return false;
  char* end = nullptr;
  const long begin = std::strtol(value.c_str(), &end, 10);
  if (end != value.c_str() + colon || begin < 0) return false;
  long stop = 0;  // "A:" means "A to the end"
  if (colon + 1 < value.size()) {
    stop = std::strtol(value.c_str() + colon + 1, &end, 10);
    if (*end != '\0' || stop < 0 || (stop != 0 && stop <= begin)) return false;
  }
  shard.rep_begin = static_cast<std::size_t>(begin);
  shard.rep_end = static_cast<std::size_t>(stop);
  return true;
}

/// How ParseRunOption treated one argument.
enum class OptionStatus { kTaken, kNotMine, kInvalid };

/// Parses one of the run options the suite and `run --grid` share
/// (--telemetry, --qlog-dir, --threads, --data-dir, --progress,
/// --budget-seconds, --shard, --points, --rep-range) into `context` and
/// `telemetry_path`. On kInvalid the error is already printed.
OptionStatus ParseRunOption(const std::string& arg, BenchContext& context,
                            std::string& telemetry_path) {
  if (arg.rfind("--telemetry=", 0) == 0) {
    telemetry_path = arg.substr(std::strlen("--telemetry="));
  } else if (arg.rfind("--qlog-dir=", 0) == 0) {
    context.qlog_dir = arg.substr(std::strlen("--qlog-dir="));
    if (!PrepareQlogDir(context.qlog_dir)) return OptionStatus::kInvalid;
  } else if (arg.rfind("--threads=", 0) == 0) {
    // Must be set before the first ThreadPool::Global() use.
    if (!ParseThreads(arg)) return OptionStatus::kInvalid;
  } else if (arg.rfind("--data-dir=", 0) == 0) {
    const char* dir = arg.c_str() + std::strlen("--data-dir=");
    // CsvWriter silently deactivates when the directory is missing.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create data dir '%s': %s\n", dir, ec.message().c_str());
      return OptionStatus::kInvalid;
    }
    context.data_dir = dir;
  } else if (arg == "--progress") {
    context.progress = true;
  } else if (arg.rfind("--budget-seconds=", 0) == 0) {
    if (!ParseNumberOption(arg, 0, 1e9, context.budget_seconds)) return OptionStatus::kInvalid;
  } else if (arg.rfind("--shard=", 0) == 0) {
    if (!ParseShard(arg.substr(std::strlen("--shard=")), context.shard)) {
      std::fprintf(stderr, "invalid --shard '%s' (expected I/N with 0 <= I < N)\n",
                   arg.c_str());
      return OptionStatus::kInvalid;
    }
  } else if (arg.rfind("--points=", 0) == 0) {
    if (!ParsePoints(arg.substr(std::strlen("--points=")), context.shard.points)) {
      std::fprintf(stderr, "invalid --points '%s' (expected ID,ID,...)\n", arg.c_str());
      return OptionStatus::kInvalid;
    }
  } else if (arg.rfind("--rep-range=", 0) == 0) {
    if (!ParseRepRange(arg.substr(std::strlen("--rep-range=")), context.shard)) {
      std::fprintf(stderr, "invalid --rep-range '%s' (expected A:B with 0 <= A < B,"
                   " or A: for 'to the end')\n", arg.c_str());
      return OptionStatus::kInvalid;
    }
  } else {
    return OptionStatus::kNotMine;
  }
  return OptionStatus::kTaken;
}

/// The context a suite or `run --grid` starts from: the export directory
/// defaults to QUICER_DATA_DIR, read here once; --data-dir overrides it.
BenchContext DriverContext() {
  BenchContext context;
  if (const char* dir = std::getenv("QUICER_DATA_DIR")) context.data_dir = dir;
  return context;
}

/// A sharded run's only useful product is its partial-result files; without
/// a data dir the whole run would be silently discarded. Prints the error
/// and returns true in that case.
bool ShardedRunLacksDataDir(const BenchContext& context) {
  if (context.shard.all() || !context.data_dir.empty()) return false;
  std::fprintf(stderr,
               "--shard/--points/--rep-range produce partial-result files: pass "
               "--data-dir=DIR (or set QUICER_DATA_DIR)\n");
  return true;
}

/// One entry of a timed run: its row in the wall-time table, the bench its
/// telemetry records name, and the body (returns the exit code).
struct TimedUnit {
  std::string label;
  std::string bench;
  std::function<int()> run;
};

/// Starts `context.suite_start`, runs `units` in order, writes the
/// --telemetry report, and prints the wall-time table: one row per unit
/// under `column`, then "total (<what>, pool of N threads)". Returns 0 when
/// every unit succeeded.
int RunTimed(const std::vector<TimedUnit>& units, BenchContext& context,
             const std::string& telemetry_path, const char* column, const std::string& what) {
  std::vector<std::pair<double, int>> timings;  // seconds, exit code; parallel to units
  context.suite_start = std::chrono::steady_clock::now();
  if (!telemetry_path.empty()) quicer::obs::EnableProcess();
  int failures = 0;
  for (const TimedUnit& unit : units) {
    quicer::obs::SetCurrentBench(unit.bench);
    const auto start = std::chrono::steady_clock::now();
    const int code = unit.run();
    timings.emplace_back(SecondsSince(start), code);
    if (code != 0) ++failures;
  }
  quicer::obs::SetCurrentBench("");
  if (!telemetry_path.empty() &&
      !quicer::obs::WriteTelemetryReport(quicer::obs::TakeSweepRecords(), telemetry_path,
                                         stderr)) {
    return 1;
  }

  std::printf("\n%-24s %10s  %s\n", column, "wall [s]", "status");
  for (std::size_t i = 0; i < units.size(); ++i) {
    std::printf("%-24s %10.2f  %s\n", units[i].label.c_str(), timings[i].first,
                timings[i].second == 0 ? "ok" : "FAILED");
  }
  std::printf("%-24s %10.2f  (%s, pool of %u threads)\n", "total",
              SecondsSince(context.suite_start), what.c_str(),
              quicer::core::ThreadPool::Global().size());
  return failures == 0 ? 0 : 1;
}

using quicer::bench::CapturedSpec;
using quicer::bench::CaptureSpecs;

/// Reads a whole file; "-" reads stdin (the `export-grid B | run --grid=-`
/// pipeline).
std::optional<std::string> SlurpFile(const std::string& path) {
  std::ostringstream buffer;
  if (path == "-") {
    buffer << std::cin.rdbuf();
    return buffer.str();
  }
  std::ifstream in(path);
  if (!in.is_open()) return std::nullopt;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---------------------------------------------------------------------------
// Scenario-file plumbing shared by export-grid --check and run --grid.
// ---------------------------------------------------------------------------

/// One scenario of a grid file, validated against the registry: the bench
/// exists, the sweep exists in it, and the scenario resolves cleanly onto
/// the captured live spec.
struct GridScenario {
  quicer::core::Scenario scenario;
  quicer::core::SweepSpec applied;  // live spec + scenario data
  std::size_t point_count = 0;      // of the applied spec
};

/// Parses `text` and validates every scenario against the compiled-in
/// benches. Returns nullopt and fills `error` on the first violation.
std::optional<std::vector<GridScenario>> LoadGrid(const std::string& text, std::string& error) {
  const std::optional<std::vector<quicer::core::Scenario>> scenarios =
      quicer::core::ParseScenarioFile(text, &error);
  if (!scenarios) return std::nullopt;
  // One capture pass per distinct bench.
  std::vector<std::pair<std::string, std::vector<CapturedSpec>>> captured_by_bench;
  std::vector<GridScenario> entries;
  for (const quicer::core::Scenario& scenario : *scenarios) {
    if (scenario.bench.empty()) {
      error = "scenario for sweep '" + scenario.sweep +
              "' misses its 'bench' (the registry name that owns the sweep)";
      return std::nullopt;
    }
    const BenchInfo* bench = Registry::Instance().Find(scenario.bench);
    if (bench == nullptr) {
      error = "unknown bench '" + scenario.bench + "' (see bench_suite --list)";
      return std::nullopt;
    }
    std::vector<CapturedSpec>* specs = nullptr;
    for (auto& [name, captured] : captured_by_bench) {
      if (name == scenario.bench) specs = &captured;
    }
    if (specs == nullptr) {
      captured_by_bench.emplace_back(scenario.bench, CaptureSpecs({*bench}, /*scale=*/1));
      specs = &captured_by_bench.back().second;
    }
    const CapturedSpec* live = nullptr;
    for (const CapturedSpec& captured : *specs) {
      if (captured.spec.name == scenario.sweep) live = &captured;
    }
    if (live == nullptr) {
      error = "bench '" + scenario.bench + "' has no sweep '" + scenario.sweep + "' (sweeps:";
      for (const CapturedSpec& captured : *specs) error += " " + captured.spec.name;
      error += ")";
      return std::nullopt;
    }
    GridScenario entry;
    entry.scenario = scenario;
    entry.applied = live->spec;
    if (!quicer::core::ApplyScenario(scenario, entry.applied, &error)) return std::nullopt;
    entry.point_count = quicer::core::EnumerateCount(entry.applied);
    entries.push_back(std::move(entry));
  }

  // Exports and merges go by sweep name: two scenarios for the same sweep
  // would write the same export files.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      if (entries[i].scenario.sweep == entries[j].scenario.sweep) {
        error = "duplicate scenario for sweep '" + entries[i].scenario.sweep + "'";
        return std::nullopt;
      }
    }
  }
  return entries;
}

int RunExportGrid(int argc, char** argv) {
  std::vector<std::string> names;
  std::string out_path;
  int scale = 1;
  bool check = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      if (!ParseScale(arg, scale)) return 2;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(std::strlen("--out="));
    } else if (arg == "--check") {
      check = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown export-grid option '%s'\n", arg.c_str());
      return 2;
    } else {
      names.push_back(arg);
    }
  }
  std::vector<BenchInfo> selected;
  if (names.empty()) {
    selected = Registry::Instance().Match("");
  } else {
    for (const std::string& name : names) {
      const BenchInfo* bench = Registry::Instance().Find(name);
      if (bench == nullptr) {
        std::fprintf(stderr, "export-grid: unknown bench '%s' (see --list)\n", name.c_str());
        return 2;
      }
      selected.push_back(*bench);
    }
  }

  const std::vector<CapturedSpec> captured = CaptureSpecs(selected, scale);
  std::vector<std::pair<std::string, const quicer::core::SweepSpec*>> entries;
  entries.reserve(captured.size());
  for (const CapturedSpec& spec : captured) entries.emplace_back(spec.bench, &spec.spec);
  const std::string json = quicer::core::ScenarioFileJson(entries);

  if (check) {
    // export → parse → apply-to-live → re-export must reproduce the bytes.
    std::string error;
    const std::optional<std::vector<GridScenario>> grid = LoadGrid(json, error);
    if (!grid) {
      std::fprintf(stderr, "export-grid --check: exported file does not parse back: %s\n",
                   error.c_str());
      return 1;
    }
    std::vector<std::pair<std::string, const quicer::core::SweepSpec*>> reexport;
    reexport.reserve(grid->size());
    for (const GridScenario& entry : *grid) {
      reexport.emplace_back(entry.scenario.bench, &entry.applied);
    }
    const std::string second = quicer::core::ScenarioFileJson(reexport);
    if (second != json) {
      std::size_t at = 0;
      while (at < json.size() && at < second.size() && json[at] == second[at]) ++at;
      std::fprintf(stderr,
                   "export-grid --check: re-export differs from the export at byte %zu:\n"
                   "  first:  %.60s\n  second: %.60s\n",
                   at, json.c_str() + (at < 30 ? 0 : at - 30),
                   second.c_str() + (at < 30 ? 0 : at - 30));
      return 1;
    }
    std::printf("export-grid --check: %zu sweeps of %zu benches round-trip byte-identically\n",
                captured.size(), selected.size());
    return 0;
  }

  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "export-grid: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::fprintf(stderr, "export-grid: wrote %zu sweeps of %zu benches to '%s'\n",
               captured.size(), selected.size(), out_path.c_str());
  return 0;
}

int RunGrid(int argc, char** argv) {
  std::string grid_path;
  std::string telemetry_path;
  BenchContext context = DriverContext();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--grid=", 0) == 0) {
      grid_path = arg.substr(std::strlen("--grid="));
    } else {
      const OptionStatus status = ParseRunOption(arg, context, telemetry_path);
      if (status == OptionStatus::kInvalid) return 2;
      if (status == OptionStatus::kNotMine) {
        std::fprintf(stderr, "unknown run option '%s'\n", arg.c_str());
        return 2;
      }
    }
  }
  if (grid_path.empty()) {
    std::fprintf(stderr, "run: pass --grid=FILE (a scenario file; see export-grid)\n");
    return 2;
  }
  const std::optional<std::string> text = SlurpFile(grid_path);
  if (!text) {
    std::fprintf(stderr, "run: cannot read '%s'\n", grid_path.c_str());
    return 2;
  }
  std::string error;
  const std::optional<std::vector<GridScenario>> grid = LoadGrid(*text, error);
  if (!grid) {
    std::fprintf(stderr, "run: %s: %s\n", grid_path.c_str(), error.c_str());
    return 2;
  }
  if (ShardedRunLacksDataDir(context)) return 2;
  // --points ids must exist in some scenario's grid.
  for (std::size_t id : context.shard.points) {
    bool known = false;
    for (const GridScenario& entry : *grid) known = known || id < entry.point_count;
    if (!known) {
      std::fprintf(stderr, "--points: unknown point id %zu — no scenario grid has that"
                   " many points\n", id);
      for (const GridScenario& entry : *grid) {
        std::fprintf(stderr, "  %-24s %zu points\n", entry.scenario.sweep.c_str(),
                     entry.point_count);
      }
      return 2;
    }
  }

  std::vector<TimedUnit> units;
  for (const GridScenario& entry : *grid) {
    units.push_back({entry.scenario.sweep, entry.scenario.bench, [&context, &entry] {
                       BenchContext scenario_context = context;
                       scenario_context.sweep_filter = entry.scenario.sweep;
                       scenario_context.scenario =
                           std::make_shared<const quicer::core::Scenario>(entry.scenario);
                       return quicer::bench::RunByName(entry.scenario.bench, scenario_context);
                     }});
  }
  return RunTimed(units, context, telemetry_path, "sweep",
                  std::to_string(units.size()) + " scenarios from '" + grid_path + "'");
}

int RunSchema() {
  std::fputs(quicer::core::ScenarioSchemaMarkdown().c_str(), stdout);
  return 0;
}

/// --points ids are validated against the enumerated grids of the selected
/// benches: an id no sweep can serve is an error, not a silent no-op.
int ValidatePoints(const std::vector<BenchInfo>& selected, const BenchContext& context) {
  const std::vector<CapturedSpec> sweeps = CaptureSpecs(selected, context.scale);
  std::size_t max_points = 0;
  for (const CapturedSpec& sweep : sweeps) max_points = std::max(max_points, sweep.point_count);
  std::string unknown;
  for (std::size_t id : context.shard.points) {
    if (id >= max_points) {
      if (!unknown.empty()) unknown += ',';
      unknown += std::to_string(id);
    }
  }
  if (unknown.empty()) return 0;
  std::fprintf(stderr,
               "--points: unknown point id(s) %s — no selected sweep has that many "
               "points. Enumerated grids:\n",
               unknown.c_str());
  for (const CapturedSpec& sweep : sweeps) {
    std::fprintf(stderr, "  %-24s %zu points (ids 0..%zu)\n", sweep.spec.name.c_str(),
                 sweep.point_count, sweep.point_count > 0 ? sweep.point_count - 1 : 0);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "merge") == 0) return RunMerge(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "export-grid") == 0) return RunExportGrid(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "run") == 0) return RunGrid(argc, argv);
  if (argc > 1 && std::strcmp(argv[1], "schema") == 0) return RunSchema();

  bool list = false;
  std::string filter;
  std::string telemetry_path;
  BenchContext context = DriverContext();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg.rfind("--filter=", 0) == 0) {
      filter = arg.substr(std::strlen("--filter="));
    } else if (arg.rfind("--scale=", 0) == 0) {
      if (!ParseScale(arg, context.scale)) return 2;
    } else {
      const OptionStatus status = ParseRunOption(arg, context, telemetry_path);
      if (status == OptionStatus::kInvalid) return 2;
      if (status == OptionStatus::kNotMine) return Usage(argv[0]);
    }
  }
  if (ShardedRunLacksDataDir(context)) return 2;

  const std::vector<BenchInfo> selected = Registry::Instance().Match(filter);
  if (list) {
    for (const BenchInfo& bench : selected) {
      std::printf("%-24s %s\n", bench.name.c_str(), bench.description.c_str());
    }
    return 0;
  }
  if (selected.empty()) {
    std::fprintf(stderr, "no benches match filter '%s'\n", filter.c_str());
    return 2;
  }
  if (!context.shard.points.empty()) {
    const int invalid = ValidatePoints(selected, context);
    if (invalid != 0) return invalid;
  }

  std::vector<TimedUnit> units;
  for (const BenchInfo& bench : selected) {
    units.push_back({bench.name, bench.name, [&context, &bench] { return bench.run(context); }});
  }
  return RunTimed(units, context, telemetry_path, "bench",
                  std::to_string(units.size()) + " benches");
}
