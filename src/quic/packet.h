// QUIC packets and UDP datagram coalescing.
//
// A Datagram is what the Link transports and what loss patterns drop; the
// paper's loss scenarios are defined on datagram indices precisely because
// implementations coalesce packets differently (Table 4, Appendix E).
//
// Packets and datagrams are views: a packet's frames and a datagram's
// packets are placed in the run arena once, when the sender builds them
// (Connection::BuildPacket / SendDatagramNow), and every later hop — the
// link, an event closure, the receiver's undecryptable stash — copies the
// view, never the elements. Both types are trivially copyable and trivially
// destructible; nothing is released when a datagram is delivered, dropped,
// or left in the event queue at the end of a run.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "quic/frame.h"
#include "quic/types.h"
#include "sim/arena.h"

namespace quicer::quic {

/// Long/short header size estimate for a packet in `space` (long headers
/// carry CIDs + lengths), excluding any Retry token.
std::size_t HeaderSize(PacketNumberSpace space);

/// One QUIC packet: a packet number in a space plus frames.
struct Packet {
  PacketNumberSpace space = PacketNumberSpace::kInitial;
  std::uint64_t packet_number = 0;
  /// Address-validation token echoed in Initial packets after a Retry
  /// (0 = no token).
  std::uint64_t token = 0;
  /// The packet's frames, in the run arena (or a caller's array in tests).
  sim::Span<const Frame> frames;
  /// Cached encoded size, stamped when the packet is built (0 = unknown).
  /// The simulator moves packets sender-to-receiver without re-encoding, so
  /// the stamp saves a frame-list walk at every sizing site along the way.
  /// Anything that replaces `frames` after building must re-stamp (see
  /// PadDatagramTo).
  std::size_t wire_size = 0;

  /// Full encoded size: header + frames + AEAD tag.
  std::size_t WireSize() const;

  bool IsAckEliciting() const { return AnyAckEliciting(frames); }

  /// True if the packet carries a frame of type T.
  template <typename T>
  bool Has() const {
    for (const Frame& frame : frames) {
      if (std::holds_alternative<T>(frame)) return true;
    }
    return false;
  }

  /// Returns the first frame of type T or nullptr.
  template <typename T>
  const T* Find() const {
    for (const Frame& frame : frames) {
      if (const T* f = std::get_if<T>(&frame)) return f;
    }
    return nullptr;
  }

  std::string Describe() const;
};

/// One UDP datagram: one or more coalesced QUIC packets.
struct Datagram {
  /// The coalesced packets, in the run arena (or a caller's array in tests).
  sim::Span<Packet> packets;
  /// Per-direction 1-based send index; assigned by the connection when
  /// handing the datagram to the link (mirrors the paper's loss indices).
  std::uint64_t index = 0;

  std::size_t WireSize() const;

  /// True if any packet in the datagram is in `space`.
  bool HasSpace(PacketNumberSpace space) const;

  std::string Describe() const;
};

static_assert(std::is_trivially_copyable_v<Packet> && std::is_trivially_destructible_v<Packet>,
              "packets are views: copied as plain bytes, never destroyed");
static_assert(std::is_trivially_copyable_v<Datagram> &&
                  std::is_trivially_destructible_v<Datagram>,
              "datagrams move through the link as plain bytes, with nothing to release");

/// Pads `datagram` with a PADDING frame in its last packet so its wire size
/// reaches at least `target` bytes (no-op if already large enough). The last
/// packet's frames are placed again in `arena` with one extra slot.
void PadDatagramTo(Datagram& datagram, std::size_t target, sim::Arena& arena);

}  // namespace quicer::quic
