// QUIC frame model.
//
// Frames carry no real payload bytes — only the metadata the experiments
// depend on: type, byte counts (for amplification / coalescing accounting),
// stream and crypto offsets (for reassembly and retransmission), and the
// ACK fields (largest acked, ranges, ack delay) that drive RTT estimation.
//
// Every frame is trivially copyable and trivially destructible: the one
// variable-length field, an ACK's range list, is a view into the run arena
// (sim/arena.h), so frames copy as plain bytes and are never torn down.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>

#include "quic/types.h"
#include "sim/arena.h"
#include "sim/time.h"
#include "tls/messages.h"

namespace quicer::quic {

/// PADDING: fills a datagram up to the required minimum size.
struct PaddingFrame {
  std::uint32_t size = 0;
};

/// PING: ack-eliciting no-op, the default PTO probe content.
struct PingFrame {};

/// Inclusive packet-number range inside an ACK frame.
struct PnRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  bool Contains(std::uint64_t pn) const { return pn >= first && pn <= last; }
};

/// ACK: acknowledges packet ranges and reports the local ack delay.
struct AckFrame {
  std::uint64_t largest_acked = 0;
  /// Host-reported delay between receiving the largest acked packet and
  /// sending this ACK. Many deployments report 0 (Table 3) or values
  /// exceeding the RTT (Fig 10); the connection config controls this.
  sim::Duration ack_delay = 0;
  /// Descending, the first covering largest_acked. Placed in the run arena
  /// by AckManager::BuildAck (or a caller's array in tests); valid until
  /// the arena resets.
  sim::Span<const PnRange> ranges;

  /// True if `pn` is covered by any range. Inline because the recovery
  /// library calls it without linking the quic library.
  bool Acks(std::uint64_t pn) const {
    for (const PnRange& range : ranges) {
      if (range.Contains(pn)) return true;
    }
    return false;
  }
};

/// CRYPTO: a chunk of a TLS handshake message at a crypto-stream offset.
struct CryptoFrame {
  /// Offset within the per-space crypto stream.
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  /// Which TLS message this chunk belongs to (emulation metadata).
  tls::MessageType message = tls::MessageType::kClientHello;
};

/// STREAM: a chunk of application data.
struct StreamFrame {
  std::uint64_t stream_id = 0;
  std::uint64_t offset = 0;
  std::uint32_t length = 0;
  bool fin = false;
};

/// MAX_DATA: connection-level flow-control credit (drives Fig 11: these are
/// ack-eliciting and give the client most of its RTT samples on downloads).
struct MaxDataFrame {
  std::uint64_t maximum_data = 0;
};

/// HANDSHAKE_DONE: server -> client, confirms the handshake.
struct HandshakeDoneFrame {};

/// NEW_CONNECTION_ID (sequence number only; used for the quiche CID quirk).
struct NewConnectionIdFrame {
  std::uint64_t sequence = 0;
  std::uint64_t retire_prior_to = 0;
};

/// RETIRE_CONNECTION_ID.
struct RetireConnectionIdFrame {
  std::uint64_t sequence = 0;
};

/// CONNECTION_CLOSE (error code only; the engine never sends a reason
/// phrase, so the frame is sized with an empty one).
struct ConnectionCloseFrame {
  std::uint64_t error_code = 0;
};

/// Retry "frame": stands in for the Retry packet type (RFC 9000 §17.2.5) —
/// carries the address-validation token the client must echo in its next
/// Initial. Not ack-eliciting (Retry packets are never acknowledged).
struct RetryFrame {
  std::uint64_t token = 0;
};

using Frame = std::variant<PaddingFrame, PingFrame, AckFrame, CryptoFrame, StreamFrame,
                           MaxDataFrame, HandshakeDoneFrame, NewConnectionIdFrame,
                           RetireConnectionIdFrame, ConnectionCloseFrame, RetryFrame>;

static_assert(std::is_trivially_copyable_v<AckFrame> && std::is_trivially_destructible_v<AckFrame>,
              "ACK frames are copied as plain bytes and never destroyed");
static_assert(std::is_trivially_copyable_v<Frame> && std::is_trivially_destructible_v<Frame>,
              "frames live in the run arena, which never runs destructors");

/// True for frames that require the peer to send an acknowledgment
/// (everything except ACK, PADDING and CONNECTION_CLOSE — RFC 9002 §2).
bool IsAckEliciting(const Frame& frame);

/// True if any frame in `frames` is ack-eliciting.
bool AnyAckEliciting(sim::Span<const Frame> frames);

/// Approximate encoded size of the frame in bytes.
std::size_t WireSize(const Frame& frame);

/// Total encoded size of a frame sequence.
std::size_t WireSize(sim::Span<const Frame> frames);

/// Frames worth retransmitting after loss (CRYPTO, STREAM, MAX_DATA,
/// HANDSHAKE_DONE, NEW_CONNECTION_ID — not ACK/PADDING/PING).
bool IsRetransmittable(const Frame& frame);

/// Short human-readable rendering, e.g. "ACK[3]" or "CRYPTO[SH 0..122]".
std::string Describe(const Frame& frame);

}  // namespace quicer::quic
