// One benchmark workload: inputs generated from a seed, a sequence of
// equal-work rounds, a digest of every round's simulated outputs, and the
// per-layer metrics of the traced run.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sweep.h"
#include "obs/telemetry.h"
#include "trace.h"

namespace perfbench {

/// 64-bit FNV-1a over the bytes of the values added.
class Digest {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddDouble(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Folds every metric series of a sweep result (trace vectors, or the
/// summary's count/min/max/mean) plus the skip/abort counters.
void AddSweepResult(Digest& digest, const quicer::core::SweepResult& result);

/// Deterministic 64-bit mix of a seed and a stream label (SplitMix64).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

struct RoundOutcome {
  /// Digest of the round's simulated outputs.
  std::uint64_t digest = 0;
  /// Units of work the round attempted.
  std::uint64_t units = 0;
};

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Span totals by span name (see Tracer::Summarize).
using SpanTotals = std::map<std::string, Tracer::Totals>;

/// Accumulates obs counters from sweep results while counting is on.
class CounterFold {
 public:
  void Reset() { values_.clear(); }
  void Fold(const quicer::core::SweepResult& result);
  /// Value of a counter name ("sim.events_run"), 0 when never reported.
  double Get(std::string_view name) const;

 private:
  std::map<std::string, std::uint64_t, std::less<>> values_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates every input from `seed` and enumerates the grid. Set-up
  /// time is Setup() plus WarmUp(): everything before the first timed round.
  virtual void Setup(std::uint64_t seed) = 0;

  /// Distinct rounds before the inputs repeat: round i runs the inputs of
  /// i % cycle(), and the driver calls Rewind() before each repeat.
  virtual std::size_t cycle() const = 0;

  /// Restores the state right after Setup (a no-op for stateless rounds).
  virtual void Rewind() {}

  /// Runs the warm-up rounds on the calling thread: after Setup(), and again
  /// on a fresh thread, so its counting rounds start from the same warm
  /// pools.
  virtual void WarmUp() = 0;

  /// Generates round `index`'s inputs outside the round's timer (and, in
  /// traced mode, times layers whose calls the round itself cannot wrap).
  virtual void PrepareRound(std::size_t /*index*/) {}

  /// Runs round `index` (< cycle()); every round does the same work.
  virtual RoundOutcome RunRound(std::size_t index) = 0;

  /// Output checks beyond the round digests, after the timed phase; may
  /// write scratch files under `work_dir`.
  virtual void ExtraChecks(const std::string& /*work_dir*/, std::uint64_t& /*attempted*/,
                           std::uint64_t& /*failed*/) {}

  /// Traced mode: rounds call the library through span-wrapped paths.
  virtual void SetTraced(bool traced) = 0;

  /// Number of rounds over which exact counts are taken.
  virtual std::size_t counting_rounds() const = 0;
  /// Brackets the counting rounds: counts accumulate only in between.
  virtual void BeginCounting() = 0;
  virtual void EndCounting() = 0;

  /// Per-layer metrics from the exact counts and the traced-phase spans
  /// (`rounds` traced rounds ran).
  virtual void Report(const SpanTotals& spans, std::uint64_t rounds,
                      std::vector<LayerMetric>& out) = 0;
};

std::unique_ptr<Workload> MakeCertCache();
std::unique_ptr<Workload> MakeTrancoScan();
std::unique_ptr<Workload> MakeHandshakePaper();
std::unique_ptr<Workload> MakeLossyTransfer();

/// Summed self / total time of the spans named `name` (0 when absent).
double SelfNs(const SpanTotals& spans, const std::string& name);
double TotalNs(const SpanTotals& spans, const std::string& name);

}  // namespace perfbench
