// Qlog-style structured event trace.
//
// The paper's testbed methodology derives all timing results from Qlog
// (§3): packets sent/received plus recovery:metrics updates (smoothed RTT,
// RTT variation). Implementations differ in how many metric updates they
// expose and whether they log the RTT variance at all (Appendix E, Fig 11);
// both are modelled here via an exposure probability and a logs_rttvar flag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "quic/types.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace quicer::qlog {

/// recovery:metrics_updated event payload.
struct MetricsUpdate {
  sim::Time time = 0;
  sim::Duration smoothed_rtt = 0;
  sim::Duration rtt_var = 0;       // 0 when the implementation does not log it
  sim::Duration latest_rtt = 0;
  sim::Duration min_rtt = 0;
  sim::Duration pto = 0;           // PTO period implied by the metrics
  bool rtt_var_logged = true;
};

/// transport:packet_sent / packet_received event payload.
struct PacketEvent {
  sim::Time time = 0;
  bool sent = false;  // false = received
  quic::PacketNumberSpace space = quic::PacketNumberSpace::kInitial;
  std::uint64_t packet_number = 0;
  std::size_t size = 0;
  bool ack_eliciting = false;
};

/// Free-form noteworthy events (PTO expiry, amplification block, ...).
struct NoteEvent {
  sim::Time time = 0;
  std::string category;
  std::string detail;
};

/// Structured events beyond packets/metrics, matching qlog draft event
/// classes. One tagged struct instead of per-class vectors: the classes are
/// rare relative to packets, and a single time-ordered stream is what
/// serialisation wants anyway.
struct StructEvent {
  enum class Kind : std::uint8_t {
    kLossTimerUpdated,       // recovery:loss_timer_updated
    kPacketLost,             // recovery:packet_lost
    kDatagramDropped,        // transport:datagram_dropped
    kConnectionStateUpdated, // connectivity:connection_state_updated
  };
  Kind kind = Kind::kLossTimerUpdated;
  /// Sub-kind discriminators, meaning depends on Kind:
  ///  * kLossTimerUpdated: event_type — 0 = set, 1 = cancelled, 2 = expired
  ///  * kPacketLost: trigger — 0 = reordering_threshold, 1 = time_threshold
  ///  * kDatagramDropped: drop cause — 0 = pattern, 1 = stochastic, 2 = queue
  ///  * kConnectionStateUpdated: 0 = handshake_complete,
  ///    1 = handshake_confirmed, 2 = closed
  std::uint8_t detail = 0;
  /// kLossTimerUpdated only: 0 = ack (time-threshold) timer, 1 = pto.
  std::uint8_t timer_type = 0;
  sim::Time time = 0;
  quic::PacketNumberSpace space = quic::PacketNumberSpace::kInitial;
  std::uint64_t packet_number = 0;  // kPacketLost: the lost packet
  std::uint64_t size = 0;           // kDatagramDropped: raw payload length
  sim::Time deadline = 0;           // kLossTimerUpdated(set): absolute expiry
};

/// Controls how faithfully the emulated implementation exposes its
/// recovery metrics (Appendix E).
struct TraceConfig {
  /// Probability that an individual metrics update is written to the log.
  double metrics_exposure = 1.0;
  /// False for implementations that omit rttvar (neqo, mvfst, picoquic).
  bool logs_rttvar = true;
  /// Capture packet events (disable for bulk-transfer speed).
  bool capture_packets = true;
  /// Capture structured recovery/transport/connectivity events (StructEvent).
  /// Off by default: metric extraction never reads them, and keeping the
  /// default trace byte-identical to pre-telemetry builds is part of the
  /// export contract. Enabled for qlog export (--qlog-dir).
  bool capture_events = false;
};

/// Live prefix of a trace's note log. Note slots (and their string buffers)
/// are recycled across Trace::Reset() calls, so the backing vector may hold
/// more entries than are currently valid; this view exposes only the live
/// ones.
class NotesView {
 public:
  NotesView(const NoteEvent* data, std::size_t size) : data_(data), size_(size) {}
  const NoteEvent* begin() const { return data_; }
  const NoteEvent* end() const { return data_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const NoteEvent& operator[](std::size_t index) const { return data_[index]; }

 private:
  const NoteEvent* data_;
  std::size_t size_;
};

/// Per-connection event log.
class Trace {
 public:
  Trace() : Trace(TraceConfig{}, sim::Rng(1)) {}
  Trace(TraceConfig config, sim::Rng rng) : config_(config), rng_(rng) {}

  /// Rewinds to a freshly-constructed trace under a new config and RNG
  /// (context reuse between repetitions). Event buffers keep their capacity;
  /// note slots keep their string buffers and are overwritten in place.
  void Reset(TraceConfig config, sim::Rng rng);

  /// Records a packet event when capture_packets is on (single branch
  /// otherwise — callers emit unconditionally).
  void RecordPacket(const PacketEvent& event) {
    if (!config_.capture_packets) return;
    // One up-front reservation sized for a typical handshake+transfer
    // replaces the half-dozen geometric regrowths of the first run.
    if (packets_.capacity() == 0) packets_.reserve(64);
    packets_.push_back(event);
  }

  /// Records a metrics update, subject to the exposure probability. Two
  /// consecutive identical updates are deduplicated, mirroring the paper's
  /// post-processing.
  void RecordMetrics(const MetricsUpdate& update);

  void RecordNote(sim::Time time, std::string_view category, std::string_view detail);

  /// Records a structured event when capture_events is on (single branch
  /// otherwise — callers emit unconditionally).
  void RecordEvent(const StructEvent& event) {
    if (!config_.capture_events) return;
    if (events_.capacity() == 0) events_.reserve(32);
    events_.push_back(event);
  }

  bool capturing_events() const { return config_.capture_events; }

  /// Count of received packets that newly acknowledged data ("packets with
  /// new ACKs" in Fig 11); incremented by the connection.
  void CountNewAckPacket() { ++packets_with_new_acks_; }

  const std::vector<MetricsUpdate>& metrics() const { return metrics_; }
  /// Moves the metrics log out (for result extraction at end of run; the
  /// trace is discarded or reset afterwards).
  std::vector<MetricsUpdate> TakeMetrics() { return std::move(metrics_); }
  const std::vector<PacketEvent>& packets() const { return packets_; }
  const std::vector<StructEvent>& events() const { return events_; }
  NotesView notes() const { return NotesView(notes_.data(), notes_used_); }
  std::uint64_t packets_with_new_acks() const { return packets_with_new_acks_; }

  /// First logged metrics update, if any (basis of Fig 16).
  std::optional<MetricsUpdate> FirstMetrics() const;

  std::uint64_t suppressed_metrics_updates() const { return suppressed_; }

 private:
  TraceConfig config_;
  sim::Rng rng_;
  std::vector<MetricsUpdate> metrics_;
  std::vector<PacketEvent> packets_;
  std::vector<StructEvent> events_;
  /// Note slots; only the first notes_used_ are live (see NotesView).
  std::vector<NoteEvent> notes_;
  std::size_t notes_used_ = 0;
  std::uint64_t packets_with_new_acks_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace quicer::qlog
