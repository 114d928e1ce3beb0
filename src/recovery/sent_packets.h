// Sent-packet ledger and loss detection (RFC 9002 §6.1).
//
// One ledger per packet number space. It remembers every ack-eliciting or
// in-flight packet until acknowledged or declared lost, provides the RTT
// sample on ack receipt (only when the *largest newly acked* packet is
// ack-eliciting — the rule that makes the server blind after an instant ACK,
// Fig 6), and implements packet-threshold + time-threshold loss detection.
//
// Storage is a vector kept sorted by packet number whose live entries are
// the suffix [head_, end). Packet numbers are assigned monotonically, so
// insertion IS a push_back; the one out-of-order repair path rotates a late
// record into place and is counted, never silent. Acked and lost records
// always sit at or below the ACK's largest packet number, so both paths
// touch only that bottom part of the window:
//  * an ACK binary-searches [smallest acked, largest acked] and walks it
//    against the ranges with two pointers; survivors (the holes) slide up
//    toward the window's end and head_ advances past the retired slots, so
//    packets above the ACK's largest are never visited;
//  * loss detection visits only [head_, largest_acked), the holes;
//  * the dead prefix is reclaimed once it outgrows the live suffix
//    (amortised O(1) per retired record, capacity kept).
// An ACK therefore costs O(newly acked + holes below its largest), not
// O(in flight). All result orders are ascending-pn, matching the earlier
// full-scan implementation bit for bit. The Into-suffixed entry points fill
// caller-owned scratch buffers, and each record's retransmittable frames
// live in the per-repetition arena (see sim/arena.h) as a non-owning
// FrameSpan — the per-ACK hot path allocates nothing in steady state.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "quic/frame.h"
#include "quic/types.h"
#include "sim/arena.h"
#include "sim/time.h"

namespace quicer::recovery {

/// Non-owning view of a packet's retransmittable frames, parked in the run
/// arena by the sender. Frames are trivially destructible, so dropping a
/// span — on ack, on loss, or at arena reset — needs no cleanup. Valid
/// until the owning arena resets.
using FrameSpan = sim::Span<const quic::Frame>;

/// Metadata for one sent packet. Trivially copyable: the frame storage is an
/// arena-backed span, not an owned container.
struct SentPacket {
  std::uint64_t packet_number = 0;
  sim::Time sent_time = 0;
  std::size_t bytes = 0;
  bool ack_eliciting = false;
  bool in_flight = false;
  /// Frames to replay if the packet is declared lost.
  FrameSpan retransmittable;
};

/// Outcome of processing one ACK frame.
struct AckResult {
  std::vector<SentPacket> newly_acked;
  /// Set when the largest acked packet is among the newly acked.
  std::optional<SentPacket> largest_newly_acked;
  /// True when a valid RTT sample is available: largest newly acked is
  /// ack-eliciting (RFC 9002 §5.1).
  bool rtt_sample_available = false;
  sim::Duration latest_rtt = 0;
  std::size_t newly_acked_bytes = 0;
  bool any_ack_eliciting_newly_acked = false;
};

/// Packet reordering threshold (RFC 9002 kPacketThreshold).
inline constexpr std::uint64_t kPacketThreshold = 3;

/// Read-only view of a ledger's outstanding packets, ascending pn. Valid
/// until the next mutating call on the ledger.
struct OutstandingView {
  const SentPacket* first = nullptr;
  const SentPacket* last = nullptr;

  const SentPacket* begin() const { return first; }
  const SentPacket* end() const { return last; }
};

/// Per-space ledger of unacknowledged packets.
class SentPacketLedger {
 public:
  void OnPacketSent(SentPacket packet);

  /// Processes an ACK received at `now`. Ranges in the canonical form
  /// (descending, disjoint, each first <= last — what AckManager emits) are
  /// matched in place; any other list is normalised into a scratch buffer
  /// first.
  AckResult OnAckReceived(const quic::AckFrame& ack, sim::Time now);

  /// As above, but reuses `result`'s buffers (cleared first) — the per-ACK
  /// hot path allocates nothing in steady state.
  void OnAckReceivedInto(const quic::AckFrame& ack, sim::Time now, AckResult& result);

  /// Declares packets lost per time/packet thresholds; removes and returns
  /// them. `loss_delay` is 9/8 * max(smoothed, latest) (computed by caller).
  std::vector<SentPacket> DetectLoss(sim::Time now, sim::Duration loss_delay);

  /// As above into a reused buffer (cleared first).
  void DetectLossInto(sim::Time now, sim::Duration loss_delay, std::vector<SentPacket>& lost);

  /// Earliest time at which an unacked packet will cross the time threshold,
  /// or kNever. Valid after a call to DetectLoss.
  sim::Time loss_time() const { return loss_time_; }

  bool HasAckElicitingInFlight() const { return ack_eliciting_in_flight_ > 0; }
  std::size_t bytes_in_flight() const { return bytes_in_flight_; }

  /// Time the most recent ack-eliciting packet was sent (for PTO base).
  /// Reads the newest ack-eliciting record from the back while the live
  /// records' sent times are non-decreasing (every Connection send); after
  /// an out-of-order or earlier-timestamped push it scans exactly until
  /// the ledger next drains.
  std::optional<sim::Time> LastAckElicitingSentTime() const;

  /// Largest packet number acknowledged so far.
  std::optional<std::uint64_t> largest_acked() const { return largest_acked_; }

  /// The outstanding packets in place (ascending pn) — what PTO probes
  /// walk to bundle outstanding data without copying.
  OutstandingView Outstanding() const {
    return {unacked_.data() + head_, unacked_.data() + unacked_.size()};
  }

  /// Unacked packets' retransmittable frames (oldest first).
  std::vector<quic::Frame> OutstandingRetransmittable() const;

  /// Packet numbers still outstanding (ascending).
  std::vector<std::uint64_t> OutstandingPns() const;

  /// Discards the space entirely (key discard, RFC 9002 §6.4). In-flight
  /// bytes are released.
  void Clear();

  /// Full rewind for context reuse between repetitions. Unlike Clear() —
  /// which keeps largest_acked_ because packet numbers never reset within a
  /// connection — Reset() forgets everything: the next run restarts packet
  /// numbers at zero.
  void Reset();

  std::size_t unacked_count() const { return unacked_.size() - head_; }

  /// True if `pn` is still outstanding.
  bool IsOutstanding(std::uint64_t pn) const;

  /// Times the out-of-order repair path in OnPacketSent ran. Always zero for
  /// ledgers fed by a Connection (monotone next_pn); visible so misuse is
  /// never silent.
  std::uint64_t out_of_order_sends() const { return out_of_order_sends_; }

 private:
  /// Drops one acked or lost record from the in-flight accounting.
  void Retire(const SentPacket& packet);
  /// Reclaims the dead prefix [0, head_) once it is at least as large as
  /// the live suffix (immediately when the ledger drains).
  void ReclaimPrefix();

  /// Sorted ascending by packet_number; [0, head_) are retired slots.
  std::vector<SentPacket> unacked_;
  std::size_t head_ = 0;
  /// Ack-eliciting in-flight records among the live ones.
  std::size_t ack_eliciting_in_flight_ = 0;
  /// True while the live records' sent times are non-decreasing in pn
  /// order, which lets LastAckElicitingSentTime read from the back.
  bool sent_times_sorted_ = true;
  /// Canonicalised copy of a non-canonical ACK range list.
  std::vector<quic::PnRange> range_scratch_;
  std::optional<std::uint64_t> largest_acked_;
  std::size_t bytes_in_flight_ = 0;
  sim::Time loss_time_ = sim::kNever;
  std::uint64_t out_of_order_sends_ = 0;
};

}  // namespace quicer::recovery
