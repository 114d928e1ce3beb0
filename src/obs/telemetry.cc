#include "obs/telemetry.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

#include "core/json.h"

namespace quicer::obs {

namespace {

constexpr std::array<CounterDesc, kCounterCount> kDescriptors = {{
    {"sim.events_scheduled", MergeMode::kSum},
    {"sim.events_cancelled", MergeMode::kSum},
    {"sim.events_run", MergeMode::kSum},
    {"sim.events_wheel", MergeMode::kSum},
    {"sim.events_overflow", MergeMode::kSum},
    {"quic.pool.frame_acquire", MergeMode::kSum},
    {"quic.pool.frame_hit", MergeMode::kSum},
    {"quic.pool.packet_acquire", MergeMode::kSum},
    {"quic.pool.packet_hit", MergeMode::kSum},
    {"quic.arena.bytes_highwater", MergeMode::kMax},
    {"netem.up.enqueued", MergeMode::kSum},
    {"netem.down.enqueued", MergeMode::kSum},
    {"netem.up.drop_pattern", MergeMode::kSum},
    {"netem.down.drop_pattern", MergeMode::kSum},
    {"netem.up.drop_stochastic", MergeMode::kSum},
    {"netem.down.drop_stochastic", MergeMode::kSum},
    {"netem.up.drop_queue", MergeMode::kSum},
    {"netem.down.drop_queue", MergeMode::kSum},
    {"netem.up.max_queue_pkts", MergeMode::kMax},
    {"netem.down.max_queue_pkts", MergeMode::kMax},
    {"netem.up.max_queue_bytes", MergeMode::kMax},
    {"netem.down.max_queue_bytes", MergeMode::kMax},
    {"recovery.pto_fired", MergeMode::kSum},
    {"recovery.loss_detection_runs", MergeMode::kSum},
    {"recovery.packets_lost", MergeMode::kSum},
    {"recovery.loss_timer_updates", MergeMode::kSum},
    {"scan.frontend_cache.hits", MergeMode::kSum},
    {"scan.frontend_cache.misses", MergeMode::kSum},
    {"scan.frontend_cache.ttl_evictions", MergeMode::kSum},
    {"scan.frontend_cache.capacity_evictions", MergeMode::kSum},
    {"sweep.enumerate_micros", MergeMode::kSum},
    {"sweep.execute_micros", MergeMode::kSum},
    {"sweep.merge_micros", MergeMode::kSum},
}};

// Registries are owned here and never freed: a thread that exits leaves its
// counts readable for the end-of-sweep snapshot, and tls_registry can never
// dangle into Snapshot/ResetAll.
struct Global {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  std::vector<std::unique_ptr<Registry>> registries;
  std::string current_bench;
  std::vector<SweepRecord> records;
};

Global& G() {
  static Global* g = new Global();  // leaked: outlives exiting threads
  return *g;
}

}  // namespace

const CounterDesc& Describe(Counter counter) { return kDescriptors[counter]; }

const std::array<CounterDesc, kCounterCount>& Descriptors() {
  return kDescriptors;
}

MergeMode MergeModeForName(std::string_view name) {
  for (const CounterDesc& d : kDescriptors) {
    if (name == d.name) return d.merge;
  }
  return MergeMode::kSum;
}

bool ProcessEnabled() { return G().enabled.load(std::memory_order_relaxed); }

void EnableProcess() {
  G().enabled.store(true, std::memory_order_relaxed);
  EnsureThisThread();
}

void EnsureThisThread() {
  if (detail::tls_registry != nullptr || !ProcessEnabled()) return;
  auto registry = std::make_unique<Registry>();
  detail::tls_registry = registry.get();
  std::lock_guard<std::mutex> lock(G().mu);
  G().registries.push_back(std::move(registry));
}

std::array<std::uint64_t, kCounterCount> Snapshot() {
  std::array<std::uint64_t, kCounterCount> out{};
  std::lock_guard<std::mutex> lock(G().mu);
  for (const auto& registry : G().registries) {
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      const std::uint64_t v = registry->values[i].load(std::memory_order_relaxed);
      if (kDescriptors[i].merge == MergeMode::kMax) {
        if (v > out[i]) out[i] = v;
      } else {
        out[i] += v;
      }
    }
  }
  return out;
}

void ResetAll() {
  std::lock_guard<std::mutex> lock(G().mu);
  for (const auto& registry : G().registries) {
    for (auto& cell : registry->values) cell.store(0, std::memory_order_relaxed);
  }
}

void SetCurrentBench(std::string bench) {
  std::lock_guard<std::mutex> lock(G().mu);
  G().current_bench = std::move(bench);
}

const std::string& CurrentBench() {
  // Callers (the sweep engine, single-threaded between sweeps) read this
  // only from the thread that sets it; the lock in SetCurrentBench covers
  // the record list instead.
  return G().current_bench;
}

void AppendSweepRecord(SweepRecord record) {
  std::lock_guard<std::mutex> lock(G().mu);
  G().records.push_back(std::move(record));
}

std::vector<SweepRecord> TakeSweepRecords() {
  std::lock_guard<std::mutex> lock(G().mu);
  std::vector<SweepRecord> out = std::move(G().records);
  G().records.clear();
  return out;
}

std::uint64_t RecordCounter(const SweepRecord& record, std::string_view name) {
  for (const auto& [counter_name, value] : record.counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

std::string TelemetryReportJson(const std::vector<SweepRecord>& records) {
  std::string out;
  out += "{\n  \"format\": \"quicer-telemetry-v1\",\n  \"sweeps\": [";
  bool first_record = true;
  for (const SweepRecord& record : records) {
    out += first_record ? "\n" : ",\n";
    first_record = false;
    out += "    {\n";
    out += "      \"bench\": \"" + core::JsonEscape(record.bench) + "\",\n";
    out += "      \"sweep\": \"" + core::JsonEscape(record.sweep) + "\",\n";
    out += "      \"wall_seconds\": " + core::JsonNumber(record.wall_seconds) +
           ",\n";
    out += "      \"executed_runs\": " + std::to_string(record.executed_runs) +
           ",\n";
    double events_per_sec = 0.0;
    std::uint64_t events_run = RecordCounter(record, "sim.events_run");
    if (record.wall_seconds > 0.0) {
      events_per_sec = static_cast<double>(events_run) / record.wall_seconds;
    }
    out += "      \"events_per_sec\": " + core::JsonNumber(events_per_sec) +
           ",\n";
    out += "      \"counters\": {";
    bool first_counter = true;
    for (const auto& [name, value] : record.counters) {
      out += first_counter ? "\n" : ",\n";
      first_counter = false;
      out += "        \"" + core::JsonEscape(name) +
             "\": " + std::to_string(value);
    }
    out += first_counter ? "}" : "\n      }";
    out += "\n    }";
  }
  out += first_record ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

bool WriteTelemetryReport(const std::vector<SweepRecord>& records, const std::string& path,
                          std::FILE* log) {
  std::ofstream out(path, std::ios::trunc);
  out << TelemetryReportJson(records);
  if (log != nullptr) {
    if (out) {
      std::fprintf(log, "telemetry report (%zu sweeps) -> %s\n", records.size(), path.c_str());
    } else {
      std::fprintf(log, "cannot write the telemetry report to '%s'\n", path.c_str());
    }
  }
  return static_cast<bool>(out);
}

}  // namespace quicer::obs
