#include "quic/packet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <vector>

namespace quicer::quic {
namespace {

// Packets view their frames and datagrams their packets; the test's wire
// objects live on one arena for the whole binary, like a run's do.
sim::Arena& TestArena() {
  static sim::Arena arena;
  return arena;
}

Packet MakePacket(PacketNumberSpace space, std::initializer_list<Frame> frames) {
  Packet packet;
  packet.space = space;
  packet.packet_number = 0;
  packet.frames = TestArena().Copy(frames.begin(), frames.size());
  return packet;
}

TEST(Packet, LongHeadersLargerThanShort) {
  EXPECT_GT(HeaderSize(PacketNumberSpace::kInitial), HeaderSize(PacketNumberSpace::kAppData));
  EXPECT_GT(HeaderSize(PacketNumberSpace::kHandshake), HeaderSize(PacketNumberSpace::kAppData));
}

TEST(Packet, WireSizeIncludesAeadTag) {
  const Packet packet = MakePacket(PacketNumberSpace::kAppData, {PingFrame{}});
  EXPECT_EQ(packet.WireSize(), HeaderSize(packet.space) + 1 + kAeadTagSize);
}

TEST(Packet, AckElicitingFollowsFrames) {
  EXPECT_FALSE(MakePacket(PacketNumberSpace::kInitial, {AckFrame{}}).IsAckEliciting());
  EXPECT_TRUE(
      MakePacket(PacketNumberSpace::kInitial, {AckFrame{}, PingFrame{}}).IsAckEliciting());
}

TEST(Packet, IsRetransmittableFiltersAcksAndPadding) {
  // The sender's filter when it parks a packet's frames for retransmission.
  const Packet packet = MakePacket(
      PacketNumberSpace::kHandshake,
      {AckFrame{}, CryptoFrame{0, 50, tls::MessageType::kFinished}, PaddingFrame{100}});
  std::vector<Frame> frames;
  std::copy_if(packet.frames.begin(), packet.frames.end(), std::back_inserter(frames),
               IsRetransmittable);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<CryptoFrame>(frames[0]));
}

TEST(Packet, FindAndHas) {
  const Packet packet =
      MakePacket(PacketNumberSpace::kAppData, {StreamFrame{0, 0, 10, false}, AckFrame{}});
  EXPECT_TRUE(packet.Has<StreamFrame>());
  EXPECT_TRUE(packet.Has<AckFrame>());
  EXPECT_FALSE(packet.Has<PingFrame>());
  ASSERT_NE(packet.Find<StreamFrame>(), nullptr);
  EXPECT_EQ(packet.Find<StreamFrame>()->length, 10u);
  EXPECT_EQ(packet.Find<PingFrame>(), nullptr);
}

TEST(Datagram, WireSizeSumsPackets) {
  std::vector<Packet> packets = {MakePacket(PacketNumberSpace::kInitial, {PingFrame{}}),
                                 MakePacket(PacketNumberSpace::kHandshake, {PingFrame{}})};
  Datagram datagram;
  datagram.packets = packets;
  EXPECT_EQ(datagram.WireSize(),
            datagram.packets[0].WireSize() + datagram.packets[1].WireSize());
}

TEST(Datagram, HasSpaceChecksCoalescedPackets) {
  std::vector<Packet> packets = {MakePacket(PacketNumberSpace::kInitial, {AckFrame{}}),
                                 MakePacket(PacketNumberSpace::kHandshake, {PingFrame{}})};
  Datagram datagram;
  datagram.packets = packets;
  EXPECT_TRUE(datagram.HasSpace(PacketNumberSpace::kInitial));
  EXPECT_TRUE(datagram.HasSpace(PacketNumberSpace::kHandshake));
  EXPECT_FALSE(datagram.HasSpace(PacketNumberSpace::kAppData));
}

TEST(Datagram, PadToReachesTarget) {
  std::vector<Packet> packets = {MakePacket(
      PacketNumberSpace::kInitial, {CryptoFrame{0, 280, tls::MessageType::kClientHello}})};
  Datagram datagram;
  datagram.packets = packets;
  PadDatagramTo(datagram, kMinInitialDatagramSize, TestArena());
  EXPECT_GE(datagram.WireSize(), kMinInitialDatagramSize);
  EXPECT_LE(datagram.WireSize(), kMinInitialDatagramSize + 8);
}

TEST(Datagram, PadPlacesLastPacketFramesAgainWithOneMoreSlot) {
  const Frame crypto{CryptoFrame{0, 280, tls::MessageType::kClientHello}};
  std::vector<Packet> packets = {MakePacket(PacketNumberSpace::kInitial, {PingFrame{}}),
                                 MakePacket(PacketNumberSpace::kHandshake, {crypto})};
  packets[1].wire_size = packets[1].WireSize();
  const Frame* const original = packets[1].frames.data;
  Datagram datagram;
  datagram.packets = packets;
  PadDatagramTo(datagram, kMinInitialDatagramSize, TestArena());

  // Only the last packet changes: its frames were copied to new storage
  // with the PADDING frame appended, and its size stamp was refreshed.
  EXPECT_EQ(packets[0].frames.size(), 1u);
  ASSERT_EQ(packets[1].frames.size(), 2u);
  EXPECT_NE(packets[1].frames.data, original);
  EXPECT_TRUE(std::holds_alternative<CryptoFrame>(packets[1].frames[0]));
  EXPECT_TRUE(std::holds_alternative<PaddingFrame>(packets[1].frames[1]));
  EXPECT_EQ(packets[1].wire_size, packets[1].WireSize());
  // The frames the old view pointed at are untouched.
  EXPECT_TRUE(std::holds_alternative<CryptoFrame>(original[0]));
  EXPECT_EQ(datagram.WireSize(), kMinInitialDatagramSize);
}

TEST(Datagram, PadToNoopWhenAlreadyLarge) {
  std::vector<Packet> packets = {
      MakePacket(PacketNumberSpace::kInitial, {PaddingFrame{1300}})};
  Datagram datagram;
  datagram.packets = packets;
  const std::size_t before = datagram.WireSize();
  PadDatagramTo(datagram, 1200, TestArena());
  EXPECT_EQ(datagram.WireSize(), before);
}

TEST(Datagram, PadEmptyIsNoop) {
  Datagram datagram;
  PadDatagramTo(datagram, 1200, TestArena());
  EXPECT_TRUE(datagram.packets.empty());
}

TEST(Datagram, DescribeListsCoalescedPackets) {
  std::vector<Packet> packets = {MakePacket(PacketNumberSpace::kInitial, {AckFrame{}}),
                                 MakePacket(PacketNumberSpace::kHandshake, {PingFrame{}})};
  Datagram datagram;
  datagram.packets = packets;
  const std::string description = datagram.Describe();
  EXPECT_NE(description.find("Initial"), std::string::npos);
  EXPECT_NE(description.find("Handshake"), std::string::npos);
  EXPECT_NE(description.find(" | "), std::string::npos);
}

}  // namespace
}  // namespace quicer::quic
