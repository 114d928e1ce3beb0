// In-memory span tracer of the traced benchmark run.
//
// Spans sit only in the benchmark's own files, around calls into the
// library's public functions. A span records its name, start, end, parent
// span and the id of the round (run) it belongs to; spans are kept in memory
// and written out once, when the run ends. A layer's self time is its spans'
// duration minus the time covered by their direct children (the driver is
// single-threaded, so children never overlap).
//
// When no tracer is installed every Span is one branch on a null pointer;
// the end-to-end numbers are taken that way.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // index into records(), -1 for a root span
    std::uint32_t run;
  };

  /// Per-name totals over every recorded span.
  struct Totals {
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// Round id stamped on spans opened from now on.
  void set_run(std::uint32_t run) { run_ = run; }

  std::int32_t Open(const char* name);
  void Close(std::int32_t index);

  /// Records a closed child of the innermost open span that stands for many
  /// calls too short to time one by one: `duration_ns` is their summed time.
  void AddAggregate(const char* name, std::int64_t duration_ns);

  const std::vector<Record>& records() const { return records_; }
  std::map<std::string, Totals> Summarize() const;

  /// Writes every span as CSV (name,run,parent,start_ns,end_ns). Returns
  /// false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::vector<std::int32_t> open_;
  std::uint32_t run_ = 0;
};

/// The installed tracer; null in untraced phases.
extern Tracer* g_tracer;

/// RAII span on the installed tracer (no-op when none is installed).
class Span {
 public:
  explicit Span(const char* name) : index_(g_tracer ? g_tracer->Open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) g_tracer->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int32_t index_;
};

}  // namespace perfbench
