#include "quic/frame.h"

#include <gtest/gtest.h>

namespace quicer::quic {
namespace {

TEST(Frames, AckElicitingClassification) {
  // RFC 9002 §2: all frames except ACK, PADDING and CONNECTION_CLOSE elicit
  // acknowledgments.
  EXPECT_FALSE(IsAckEliciting(AckFrame{}));
  EXPECT_FALSE(IsAckEliciting(PaddingFrame{100}));
  EXPECT_FALSE(IsAckEliciting(ConnectionCloseFrame{}));
  EXPECT_TRUE(IsAckEliciting(PingFrame{}));
  EXPECT_TRUE(IsAckEliciting(CryptoFrame{0, 10, tls::MessageType::kClientHello}));
  EXPECT_TRUE(IsAckEliciting(StreamFrame{0, 0, 10, false}));
  EXPECT_TRUE(IsAckEliciting(MaxDataFrame{1000}));
  EXPECT_TRUE(IsAckEliciting(HandshakeDoneFrame{}));
  EXPECT_TRUE(IsAckEliciting(NewConnectionIdFrame{1, 1}));
  EXPECT_TRUE(IsAckEliciting(RetireConnectionIdFrame{0}));
}

TEST(Frames, InstantAckDatagramIsNotAckEliciting) {
  // The key protocol fact behind Fig 6: an ACK(+padding)-only packet does
  // not elicit an acknowledgment, so the server gets no RTT sample from it.
  std::vector<Frame> instant_ack{AckFrame{}, PaddingFrame{1100}};
  EXPECT_FALSE(AnyAckEliciting(instant_ack));
}

TEST(Frames, RetransmittableClassification) {
  EXPECT_TRUE(IsRetransmittable(CryptoFrame{0, 10, tls::MessageType::kServerHello}));
  EXPECT_TRUE(IsRetransmittable(StreamFrame{}));
  EXPECT_TRUE(IsRetransmittable(MaxDataFrame{}));
  EXPECT_TRUE(IsRetransmittable(HandshakeDoneFrame{}));
  EXPECT_TRUE(IsRetransmittable(NewConnectionIdFrame{}));
  EXPECT_FALSE(IsRetransmittable(AckFrame{}));
  EXPECT_FALSE(IsRetransmittable(PingFrame{}));
  EXPECT_FALSE(IsRetransmittable(PaddingFrame{}));
}

TEST(Frames, WireSizeCryptoIncludesPayload) {
  const CryptoFrame frame{0, 500, tls::MessageType::kCertificate};
  const std::size_t size = WireSize(Frame(frame));
  EXPECT_GE(size, 500u + 3u);
  EXPECT_LE(size, 500u + 10u);
}

TEST(Frames, WireSizeStreamIncludesPayload) {
  const StreamFrame frame{0, 0, 1000, true};
  EXPECT_GE(WireSize(Frame(frame)), 1000u);
  EXPECT_LE(WireSize(Frame(frame)), 1012u);
}

TEST(Frames, WireSizePaddingIsItsSize) {
  EXPECT_EQ(WireSize(Frame(PaddingFrame{137})), 137u);
}

TEST(Frames, WireSizePingIsOneByte) { EXPECT_EQ(WireSize(Frame(PingFrame{})), 1u); }

TEST(Frames, AckWireSizeGrowsWithRanges) {
  // ACK frames view their ranges; local arrays stand in for the run arena.
  const PnRange one[] = {PnRange{0, 5}};
  const PnRange three[] = {PnRange{18, 20}, PnRange{10, 12}, PnRange{0, 5}};
  AckFrame one_range;
  one_range.largest_acked = 5;
  one_range.ranges = {one, 1};
  AckFrame three_ranges;
  three_ranges.largest_acked = 20;
  three_ranges.ranges = {three, 3};
  EXPECT_GT(WireSize(Frame(three_ranges)), WireSize(Frame(one_range)));
}

TEST(Frames, AckFrameAcksMembership) {
  const PnRange ranges[] = {PnRange{8, 10}, PnRange{2, 4}};
  AckFrame ack;
  ack.largest_acked = 10;
  ack.ranges = {ranges, 2};
  EXPECT_TRUE(ack.Acks(9));
  EXPECT_TRUE(ack.Acks(2));
  EXPECT_FALSE(ack.Acks(5));
  EXPECT_FALSE(ack.Acks(11));
}

TEST(Frames, ConnectionCloseIsSizedWithAnEmptyReason) {
  // Type, error code, offending frame type, zero reason length.
  EXPECT_EQ(WireSize(Frame(ConnectionCloseFrame{0x0a})), 4u);
  EXPECT_EQ(WireSize(Frame(ConnectionCloseFrame{1000})), 5u);
}

TEST(Frames, VectorWireSizeIsSum) {
  std::vector<Frame> frames{PingFrame{}, PaddingFrame{10}};
  EXPECT_EQ(WireSize(frames), 11u);
}

TEST(Frames, DescribeIsHumanReadable) {
  EXPECT_EQ(Describe(Frame(PingFrame{})), "PING");
  EXPECT_NE(Describe(Frame(CryptoFrame{0, 10, tls::MessageType::kServerHello}))
                .find("ServerHello"),
            std::string::npos);
  EXPECT_NE(Describe(Frame(StreamFrame{3, 0, 9, false})).find("STREAM[3"), std::string::npos);
}

}  // namespace
}  // namespace quicer::quic
