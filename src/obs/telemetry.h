// Cross-layer runtime telemetry: a static registry of named counters.
//
// The engine's hot layers (event queue, the run arena's wire objects, netem
// queues, loss recovery, the sweep pipeline) bump process-wide counters
// through this registry so a run can report *why* it was fast or slow —
// events executed, arena placements, queue drops by cause, PTO fires,
// per-phase wall time — without perturbing the run itself.
//
// Overhead contract:
//  * Disabled (the default), every instrumentation site is a single branch
//    on a trivially-initialised thread-local pointer — no TLS init guard, no
//    atomic, no call. Benchmarks compiled with telemetry in pay one
//    predictable not-taken branch per site.
//  * Enabled, a site is that branch plus one add into a fixed-size
//    per-thread array. No allocation ever happens on a counting path; the
//    per-thread registry is allocated once, on the first EnsureThisThread()
//    after enabling, and owned by a process-wide list (so snapshots survive
//    thread exit). The steady-state zero-allocation guarantee of
//    tests/core/run_context_alloc_test.cc holds with telemetry enabled.
//  * Counting never draws randomness and never reorders events, so enabling
//    telemetry cannot change any exported byte.
//
// Aggregation: Snapshot() folds every thread's registry — kSum counters add,
// kMax counters (high-water marks) take the maximum. ResetAll() zeroes all
// registries; the sweep engine brackets each sweep with ResetAll/Snapshot to
// attribute counts per (bench, sweep).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace quicer::obs {

/// Every counter the registry knows. Directional netem counters come in
/// up/down pairs at adjacent values so call sites can offset by direction.
enum Counter : std::size_t {
  // sim::EventQueue
  kEventsScheduled = 0,  // ScheduleImpl calls
  kEventsCancelled,      // live handles cancelled
  kEventsRun,            // callbacks executed
  kEventsWheel,          // entries stored in a wheel bucket (or the ready run)
  kEventsOverflow,       // entries spilled to the overflow heap
  // Wire objects on the run arena (sim::Arena). The quic.pool.* names
  // predate the arena and are kept so reports stay comparable: an "acquire"
  // is one frame list (Connection::BuildPacket) or packet list
  // (Connection::SendDatagramNow) placed on the arena, a "hit" one served
  // from chunks the arena already held.
  kPoolFrameAcquire,
  kPoolFrameHit,
  kPoolPacketAcquire,
  kPoolPacketHit,
  // Largest arena footprint of one run (sim::Arena::BytesUsed at run end).
  kArenaBytesHighWater,
  // netem / link, per direction (Up = client->server). kNetemEnqueued counts
  // datagrams offered to the line (busy clock or FIFO) after loss models.
  kNetemEnqueuedUp,
  kNetemEnqueuedDown,
  kNetemDropPatternUp,
  kNetemDropPatternDown,
  kNetemDropStochasticUp,
  kNetemDropStochasticDown,
  kNetemDropQueueUp,
  kNetemDropQueueDown,
  kNetemMaxQueuePktsUp,
  kNetemMaxQueuePktsDown,
  kNetemMaxQueueBytesUp,
  kNetemMaxQueueBytesDown,
  // recovery
  kRecoveryPtoFired,          // PTO expiries (probes sent)
  kRecoveryLossDetectionRuns, // DetectLossInto passes (ack- and timer-driven)
  kRecoveryPacketsLost,       // packets declared lost
  kRecoveryLossTimerUpdates,  // SetLossDetectionTimer recomputations
  // scan::FrontendCertCache, added once per simulated cluster by its caller
  // (the cache itself never counts per call)
  kScanFrontendCacheHits,
  kScanFrontendCacheMisses,
  kScanFrontendCacheTtlEvictions,
  kScanFrontendCacheCapacityEvictions,
  // sweep pipeline phase timers (wall microseconds)
  kSweepEnumerateMicros,
  kSweepExecuteMicros,
  kSweepMergeMicros,

  kCounterCount
};

/// How a counter folds across threads (Snapshot) and across partial results
/// (telemetry merge).
enum class MergeMode { kSum, kMax };

struct CounterDesc {
  const char* name;  // stable dotted name, e.g. "sim.events_run"
  MergeMode merge;
};

/// Descriptor of one counter; `Descriptors()` lists all kCounterCount in
/// enum order.
const CounterDesc& Describe(Counter counter);
const std::array<CounterDesc, kCounterCount>& Descriptors();

/// Merge mode of a counter *name* — kSum for names the registry does not
/// know (forward compatibility with reports from newer binaries).
MergeMode MergeModeForName(std::string_view name);

/// One thread's counter block. Each thread bumps only its own registry, but
/// Snapshot()/ResetAll() read and zero every registry cross-thread, so the
/// cells are relaxed atomics: the owning thread's read-modify-write compiles
/// to the same unguarded add as a plain uint64 (no lock prefix — only this
/// thread writes), while cross-thread snapshots are race-free even if a
/// future caller reads mid-sweep instead of behind ParallelFor's completion
/// edge the way RunSweep's end-of-sweep snapshot does.
struct Registry {
  std::array<std::atomic<std::uint64_t>, kCounterCount> values{};
};

namespace detail {
// The single-branch disabled path: trivially (zero-) initialised so access
// compiles to a raw TLS load — no per-access init guard. That takes an
// inline variable with its initialiser in view: other translation units
// reach an extern thread_local through a TLS wrapper (an init-function
// check, then the address), whose UBSan null check can read stale flags
// once the linker relaxes the TLS access (false "load of null pointer"
// reports with GCC 12 and binutils 2.40).
inline thread_local Registry* tls_registry = nullptr;
}  // namespace detail

/// True after EnableProcess(); checked by coarse-grained code (the sweep
/// engine) to decide whether to enable worker threads and snapshot.
bool ProcessEnabled();

/// Turns telemetry on for the process and enables the calling thread.
/// Sticky — there is no disable (tests and tools enable once up front).
void EnableProcess();

/// Ensures the calling thread has a registered registry when the process
/// has telemetry enabled (no-op otherwise). Called once per sweep job, not
/// per counter bump.
void EnsureThisThread();

/// True when the calling thread is recording.
inline bool Enabled() { return detail::tls_registry != nullptr; }

/// Adds `n` to a kSum counter. The disabled path is one branch; enabled,
/// the relaxed load/store pair is a plain add (single-writer cell).
inline void Count(Counter counter, std::uint64_t n = 1) {
  if (Registry* r = detail::tls_registry) {
    std::atomic<std::uint64_t>& cell = r->values[counter];
    cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
}

/// Raises a kMax (high-water) counter to at least `v`.
inline void CountMax(Counter counter, std::uint64_t v) {
  if (Registry* r = detail::tls_registry) {
    std::atomic<std::uint64_t>& cell = r->values[counter];
    if (v > cell.load(std::memory_order_relaxed)) {
      cell.store(v, std::memory_order_relaxed);
    }
  }
}

/// Cross-thread fold of every registered registry (sum / max per counter).
std::array<std::uint64_t, kCounterCount> Snapshot();

/// Zeroes every registered registry (between sweeps; sweeps never overlap).
void ResetAll();

/// Per-(bench, sweep) telemetry record, assembled by the sweep engine and
/// drained by bench_suite into the --telemetry report.
struct SweepRecord {
  std::string bench;   // current bench label (empty for merge)
  std::string sweep;   // SweepSpec::name
  double wall_seconds = 0.0;
  std::uint64_t executed_runs = 0;
  /// (name, value) pairs, non-zero counters only, in enum order; merged
  /// reports may append names this binary does not know.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Label stamped on SweepRecords the engine appends (bench_suite sets it
/// before running each bench; empty outside a bench).
void SetCurrentBench(std::string bench);
const std::string& CurrentBench();

/// Appends a record to the process-wide report; TakeSweepRecords drains it.
void AppendSweepRecord(SweepRecord record);
std::vector<SweepRecord> TakeSweepRecords();

/// Looks up `name` among counters of `record`; 0 when absent.
std::uint64_t RecordCounter(const SweepRecord& record, std::string_view name);

/// Serialises records as the telemetry report document
/// ("quicer-telemetry-v1"): per record wall time, executed runs, derived
/// events/sec, and the raw counters object.
std::string TelemetryReportJson(const std::vector<SweepRecord>& records);

/// Writes TelemetryReportJson(records) to `path` — the one writer of the
/// report file — and says on `log` (when non-null) where it went or that it
/// could not be written. Returns false in the latter case.
bool WriteTelemetryReport(const std::vector<SweepRecord>& records, const std::string& path,
                          std::FILE* log);

}  // namespace quicer::obs
