// perfbench_driver: runs one workload in one process and prints one JSON
// line with what it measured. run.py turns these lines into the benchmark's
// metrics and compares the round digests with the committed references.
//
//   perfbench_driver --workload NAME --seed N --mode MODE [options]
//
// Modes:
//   setup   only Setup() and the warm-up; prints setup_s.
//   rounds  Setup() and rounds 0 .. --rounds-1, untimed; prints digests.
//   timed   Setup(), then equal-work rounds for --seconds; prints every
//           round's time and digest, setup_s and the peak resident set.
//   traced  timed's untraced phase for --seconds/2, a traced phase for
//           --seconds/2, then exact counts over the workload's counting
//           rounds on a fresh thread; prints the per-layer metrics.
#include <sched.h>
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.h"
#include "workload.h"

namespace {

using perfbench::RoundOutcome;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::string mode = "timed";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t rounds = 0;
  std::string trace_out;
  std::string work_dir = ".";
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr, "perfbench_driver: %s\n", message);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--mode") {
      args.mode = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--rounds") {
      args.rounds = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.mode != "setup" && args.mode != "rounds" && args.mode != "timed" &&
      args.mode != "traced") {
    Usage("--mode must be setup, rounds, timed or traced");
  }
  if (args.seconds <= 0.0) Usage("--seconds must be positive");
  return args;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "cert_cache") return perfbench::MakeCertCache();
  if (name == "tranco_scan") return perfbench::MakeTrancoScan();
  if (name == "handshake_paper") return perfbench::MakeHandshakePaper();
  if (name == "lossy_transfer") return perfbench::MakeLossyTransfer();
  Usage(("unknown workload " + name).c_str());
}

/// The CPUs the process may run on, read before any round moves it.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

/// Rounds run on one CPU before the thread moves to the next allowed one.
/// On a shared host one vCPU can stay slow for a whole run (as a busy
/// sibling hyperthread would make it) while the others are fast; visiting every CPU lets the
/// fastest round come from whichever is fast. The first round after a move
/// starts with cold caches, so a stint is several rounds long.
constexpr std::size_t kRoundsPerCpu = 4;

void MoveToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort: a refusal keeps the current CPU
}

struct RoundRecord {
  std::size_t position;
  std::int64_t ns;
  RoundOutcome outcome;
};

/// Runs rounds from position 0 until `seconds` have passed (at least
/// `min_rounds`, at most `max_rounds` when non-zero), rewinding the workload
/// whenever the inputs wrap. Each round is timed on its own; time spent
/// between rounds is not part of any round.
std::vector<RoundRecord> RunRounds(Workload& w, double seconds, std::size_t min_rounds,
                                   std::size_t max_rounds) {
  std::vector<RoundRecord> records;
  const std::vector<int>& cpus = AllowedCpus();
  const std::int64_t deadline = perfbench::NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    if (max_rounds != 0 && i >= max_rounds) break;
    if (i >= min_rounds && perfbench::NowNs() >= deadline) break;
    if (cpus.size() > 1 && i % kRoundsPerCpu == 0) {
      MoveToCpu(cpus[(i / kRoundsPerCpu) % cpus.size()]);
    }
    const std::size_t position = i % w.cycle();
    if (i > 0 && position == 0) w.Rewind();
    w.PrepareRound(position);
    if (perfbench::g_tracer != nullptr) perfbench::g_tracer->set_run(static_cast<std::uint32_t>(i));
    const std::int64_t start = perfbench::NowNs();
    const RoundOutcome outcome = w.RunRound(position);
    records.push_back({position, perfbench::NowNs() - start, outcome});
  }
  return records;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void PrintRounds(const char* key, const std::vector<RoundRecord>& records) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RoundRecord& r = records[i];
    std::printf("%s[%zu, %" PRId64 ", \"%016" PRIx64 "\", %" PRIu64 "]", i == 0 ? "" : ", ",
                r.position, r.ns, r.outcome.digest, r.outcome.units);
  }
  std::printf("]");
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = Make(args.workload);

  const bool traced = args.mode == "traced";
  perfbench::Tracer tracer;
  // Set-up spans (population build, enumeration, scenario parse) are part
  // of the traced run's per-layer numbers; the warm-up rounds are not, so
  // they run untraced, though still inside set-up time.
  if (traced) perfbench::g_tracer = &tracer;
  const std::int64_t setup_start = perfbench::NowNs();
  w->Setup(args.seed);
  perfbench::g_tracer = nullptr;
  w->WarmUp();
  const double setup_s = static_cast<double>(perfbench::NowNs() - setup_start) / 1e9;

  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"mode\": \"%s\", "
              "\"cycle\": %zu, \"setup_s\": %.9f",
              args.workload.c_str(), args.seed, args.mode.c_str(), w->cycle(), setup_s);
  std::uint64_t check_attempted = 0;
  std::uint64_t check_failed = 0;

  if (args.mode == "rounds") {
    const std::vector<RoundRecord> records = RunRounds(*w, 0.0, args.rounds, args.rounds);
    w->ExtraChecks(args.work_dir, check_attempted, check_failed);
    std::printf(", ");
    PrintRounds("rounds", records);
  } else if (args.mode == "timed") {
    const std::vector<RoundRecord> records = RunRounds(*w, args.seconds, 3, 0);
    // Read before the checks, whose re-runs are not the workload's memory.
    const double peak_rss_mb = PeakRssMb();
    w->ExtraChecks(args.work_dir, check_attempted, check_failed);
    std::printf(", \"peak_rss_mb\": %.6f, ", peak_rss_mb);
    PrintRounds("rounds", records);
  } else if (args.mode == "traced") {
    const double half = args.seconds / 2.0;
    const std::vector<RoundRecord> untraced = RunRounds(*w, half, 3, 0);

    // Spans are timed before telemetry is enabled, which cannot be undone,
    // so they do not include the counters' cost.
    w->SetTraced(true);
    w->Rewind();
    perfbench::g_tracer = &tracer;
    const std::vector<RoundRecord> traced_rounds = RunRounds(*w, half, 3, 0);
    perfbench::g_tracer = nullptr;

    // Exact counts: a fresh thread starts from cold thread-local pools and
    // run contexts, repeats the warm-up and counts a fixed set of rounds,
    // so the counts do not depend on how many rounds ran before.
    quicer::obs::EnableProcess();
    std::vector<RoundRecord> counted;
    std::exception_ptr counter_error;
    std::thread counter([&] {
      try {
        quicer::obs::EnsureThisThread();
        w->Rewind();
        w->WarmUp();
        w->BeginCounting();
        counted = RunRounds(*w, 0.0, w->counting_rounds(), w->counting_rounds());
        w->EndCounting();
      } catch (...) {
        counter_error = std::current_exception();
      }
    });
    counter.join();
    if (counter_error) std::rethrow_exception(counter_error);

    std::vector<perfbench::LayerMetric> metrics;
    w->Report(tracer.Summarize(), traced_rounds.size(), metrics);
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
      throw std::runtime_error("cannot write " + args.trace_out);
    }
    w->ExtraChecks(args.work_dir, check_attempted, check_failed);
    std::printf(", ");
    PrintRounds("untraced_rounds", untraced);
    std::printf(", ");
    PrintRounds("counted_rounds", counted);
    std::printf(", ");
    PrintRounds("traced_rounds", traced_rounds);
    std::printf(", \"layers\": {");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}");
  }
  std::printf(", \"check_attempted\": %" PRIu64 ", \"check_failed\": %" PRIu64 "}\n",
              check_attempted, check_failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  try {
    return Run(args);
  } catch (const std::exception& e) {
    // run.py reads only a complete last line; a failed run prints none.
    std::printf("\n");
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
