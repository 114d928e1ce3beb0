#include "quic/packet.h"

#include <cstdio>
#include <new>

namespace quicer::quic {

std::size_t HeaderSize(PacketNumberSpace space) {
  switch (space) {
    case PacketNumberSpace::kInitial:
      // Long header, version, DCID/SCID (8 each), token length, length, pn.
      return 1 + 4 + 1 + 8 + 1 + 8 + 1 + 2 + 2;
    case PacketNumberSpace::kHandshake:
      return 1 + 4 + 1 + 8 + 1 + 8 + 2 + 2;
    case PacketNumberSpace::kAppData:
      // Short header: flags, DCID, pn.
      return 1 + 8 + 2;
  }
  return 0;
}

std::size_t Packet::WireSize() const {
  const std::size_t token_bytes = token != 0 ? 9 : 0;  // length prefix + token
  return HeaderSize(space) + token_bytes + quic::WireSize(frames) + kAeadTagSize;
}

std::string Packet::Describe() const {
  std::string out(ToString(space));
  char pn[24];
  std::snprintf(pn, sizeof(pn), "[%llu]: ", static_cast<unsigned long long>(packet_number));
  out += pn;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (i > 0) out += ", ";
    out += quic::Describe(frames[i]);
  }
  return out;
}

std::size_t Datagram::WireSize() const {
  std::size_t total = 0;
  for (const Packet& packet : packets) {
    total += packet.wire_size != 0 ? packet.wire_size : packet.WireSize();
  }
  return total;
}

bool Datagram::HasSpace(PacketNumberSpace space) const {
  for (const Packet& packet : packets) {
    if (packet.space == space) return true;
  }
  return false;
}

std::string Datagram::Describe() const {
  std::string out;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i > 0) out += " | ";
    out += packets[i].Describe();
  }
  return out;
}

void PadDatagramTo(Datagram& datagram, std::size_t target, sim::Arena& arena) {
  if (datagram.packets.empty()) return;
  const std::size_t current = datagram.WireSize();
  if (current >= target) return;
  Packet& padded = datagram.packets.back();
  const std::size_t count = padded.frames.size();
  Frame* frames = arena.AllocateUninitialized<Frame>(count + 1);
  for (std::size_t i = 0; i < count; ++i) {
    ::new (static_cast<void*>(frames + i)) Frame(padded.frames[i]);
  }
  ::new (static_cast<void*>(frames + count))
      Frame(PaddingFrame{static_cast<std::uint32_t>(target - current)});
  padded.frames = {frames, count + 1};
  if (padded.wire_size != 0) padded.wire_size = padded.WireSize();
}

}  // namespace quicer::quic
