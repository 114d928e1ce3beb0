// Tracks received packets and produces ACK frames.
//
// One AckManager exists per packet number space. Initial/Handshake packets
// are acknowledged immediately; 1-RTT packets after every second
// ack-eliciting packet or when max_ack_delay expires (RFC 9000 §13.2).
// The *reported* ACK Delay field is configurable because deployed stacks
// report anything from 0 to values exceeding the RTT (Table 3, Fig 10).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "quic/frame.h"
#include "quic/types.h"
#include "sim/arena.h"
#include "sim/time.h"

namespace quicer::quic {

/// How the ACK Delay field is filled in.
enum class AckDelayReportMode {
  kActual,  // report the true delay between receipt and ACK
  kZero,    // always report 0 (ngtcp2, quic-go, nginx, ... — Table 3)
  kFixed,   // report a fixed configured value (s2n-quic-style)
};

struct AckPolicy {
  /// Maximum time a 1-RTT ACK may be delayed.
  sim::Duration max_ack_delay = sim::Millis(25);
  /// Send an ACK after this many ack-eliciting packets.
  int packet_tolerance = 2;
  AckDelayReportMode report_mode = AckDelayReportMode::kActual;
  sim::Duration fixed_report_value = 0;
};

/// Per-space receive/acknowledgment state.
class AckManager {
 public:
  AckManager(PacketNumberSpace space, AckPolicy policy);

  /// Rewinds to freshly-constructed state (same space) under a possibly
  /// different policy — context reuse between repetitions. The range buffer
  /// keeps its capacity.
  void Reset(AckPolicy policy);

  /// Registers a received packet. Returns false for duplicates (already
  /// received packet numbers), which must not be processed again.
  bool OnPacketReceived(std::uint64_t pn, bool ack_eliciting, sim::Time now);

  /// True if an ACK should be sent right now (immediate spaces, or the
  /// packet tolerance was reached).
  bool ShouldAckImmediately() const;

  /// True if any ack-eliciting packet awaits acknowledgment.
  bool HasPendingAck() const { return pending_ack_eliciting_ > 0; }

  /// Deadline for the delayed-ACK timer, or kNever if nothing pending.
  sim::Time AckDeadline() const;

  /// Builds an ACK covering everything received; clears the pending state.
  /// The ACK's ranges are written into `arena` and stay valid until it
  /// resets. Returns nullopt if nothing has been received yet.
  std::optional<AckFrame> BuildAck(sim::Time now, sim::Arena& arena);

  /// Largest packet number received so far (nullopt if none).
  std::optional<std::uint64_t> largest_received() const { return largest_received_; }

  PacketNumberSpace space() const { return space_; }

 private:
  PacketNumberSpace space_;
  AckPolicy policy_;
  std::vector<PnRange> received_;  // sorted ascending, merged
  std::optional<std::uint64_t> largest_received_;
  sim::Time largest_ack_eliciting_time_ = 0;
  int pending_ack_eliciting_ = 0;
};

}  // namespace quicer::quic
