// QUIC packets and UDP datagram coalescing.
//
// A Datagram is what the Link transports and what loss patterns drop; the
// paper's loss scenarios are defined on datagram indices precisely because
// implementations coalesce packets differently (Table 4, Appendix E).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quic/frame.h"
#include "quic/types.h"

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
  std::vector<Frame> frames;
  /// Cached encoded size, stamped when the packet is built (0 = unknown).
  /// The simulator moves packets sender-to-receiver without re-encoding, so
  /// the stamp saves a frame-list walk at every sizing site along the way.
  /// Anything that mutates `frames` after building must re-stamp (see
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
  std::vector<Packet> packets;
  /// Per-direction 1-based send index; assigned by the connection when
  /// handing the datagram to the link (mirrors the paper's loss indices).
  std::uint64_t index = 0;

  Datagram() = default;
  Datagram(Datagram&&) = default;
  Datagram& operator=(Datagram&&) = default;
  Datagram(const Datagram&) = default;
  Datagram& operator=(const Datagram&) = default;
  /// Returns the packet/frame/ack-range storage to the thread-local pools.
  /// Datagrams die in many places — after delivery, dropped by loss, or
  /// still sitting in an event-queue closure when a run ends and the queue
  /// is reset — and every one of those paths must preserve pool capacity or
  /// warm RunContexts start re-allocating what the teardown destroyed.
  /// Most datagrams die as moved-from shells, so the capacity test is
  /// inline and only a real buffer pays the out-of-line release.
  ~Datagram() {
    if (packets.capacity() != 0) ReleaseToPool();
  }

  std::size_t WireSize() const;
  bool IsAckEliciting() const;

  /// True if any packet in the datagram is in `space`.
  bool HasSpace(PacketNumberSpace space) const;

  std::string Describe() const;

 private:
  void ReleaseToPool();
};

/// Pads `datagram` with a PADDING frame in its last packet so its wire size
/// reaches at least `target` bytes (no-op if already large enough).
void PadDatagramTo(Datagram& datagram, std::size_t target);

}  // namespace quicer::quic
