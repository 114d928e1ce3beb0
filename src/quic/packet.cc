#include "quic/packet.h"

#include <cstdio>

#include "quic/pool.h"

namespace quicer::quic {

void Datagram::ReleaseToPool() { ReleasePacketVec(std::move(packets)); }

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

bool Datagram::IsAckEliciting() const {
  for (const Packet& packet : packets) {
    if (packet.IsAckEliciting()) return true;
  }
  return false;
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

void PadDatagramTo(Datagram& datagram, std::size_t target) {
  if (datagram.packets.empty()) return;
  const std::size_t current = datagram.WireSize();
  if (current >= target) return;
  Packet& padded = datagram.packets.back();
  padded.frames.push_back(PaddingFrame{static_cast<std::uint32_t>(target - current)});
  if (padded.wire_size != 0) padded.wire_size = padded.WireSize();
}

}  // namespace quicer::quic
