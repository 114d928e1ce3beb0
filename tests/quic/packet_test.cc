#include "quic/packet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

namespace quicer::quic {
namespace {

Packet MakePacket(PacketNumberSpace space, std::vector<Frame> frames) {
  Packet packet;
  packet.space = space;
  packet.packet_number = 0;
  packet.frames = std::move(frames);
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
  Datagram datagram;
  datagram.packets.push_back(MakePacket(PacketNumberSpace::kInitial, {PingFrame{}}));
  datagram.packets.push_back(MakePacket(PacketNumberSpace::kHandshake, {PingFrame{}}));
  EXPECT_EQ(datagram.WireSize(),
            datagram.packets[0].WireSize() + datagram.packets[1].WireSize());
}

TEST(Datagram, HasSpaceChecksCoalescedPackets) {
  Datagram datagram;
  datagram.packets.push_back(MakePacket(PacketNumberSpace::kInitial, {AckFrame{}}));
  datagram.packets.push_back(MakePacket(PacketNumberSpace::kHandshake, {PingFrame{}}));
  EXPECT_TRUE(datagram.HasSpace(PacketNumberSpace::kInitial));
  EXPECT_TRUE(datagram.HasSpace(PacketNumberSpace::kHandshake));
  EXPECT_FALSE(datagram.HasSpace(PacketNumberSpace::kAppData));
}

TEST(Datagram, PadToReachesTarget) {
  Datagram datagram;
  datagram.packets.push_back(MakePacket(PacketNumberSpace::kInitial,
                                        {CryptoFrame{0, 280, tls::MessageType::kClientHello}}));
  PadDatagramTo(datagram, kMinInitialDatagramSize);
  EXPECT_GE(datagram.WireSize(), kMinInitialDatagramSize);
  EXPECT_LE(datagram.WireSize(), kMinInitialDatagramSize + 8);
}

TEST(Datagram, PadToNoopWhenAlreadyLarge) {
  Datagram datagram;
  datagram.packets.push_back(
      MakePacket(PacketNumberSpace::kInitial, {PaddingFrame{1300}}));
  const std::size_t before = datagram.WireSize();
  PadDatagramTo(datagram, 1200);
  EXPECT_EQ(datagram.WireSize(), before);
}

TEST(Datagram, PadEmptyIsNoop) {
  Datagram datagram;
  PadDatagramTo(datagram, 1200);
  EXPECT_TRUE(datagram.packets.empty());
}

TEST(Datagram, DescribeListsCoalescedPackets) {
  Datagram datagram;
  datagram.packets.push_back(MakePacket(PacketNumberSpace::kInitial, {AckFrame{}}));
  datagram.packets.push_back(MakePacket(PacketNumberSpace::kHandshake, {PingFrame{}}));
  const std::string description = datagram.Describe();
  EXPECT_NE(description.find("Initial"), std::string::npos);
  EXPECT_NE(description.find("Handshake"), std::string::npos);
  EXPECT_NE(description.find(" | "), std::string::npos);
}

}  // namespace
}  // namespace quicer::quic
