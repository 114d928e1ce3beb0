#include "quic/ack_manager.h"

#include <gtest/gtest.h>

namespace quicer::quic {
namespace {

AckPolicy DefaultPolicy() { return AckPolicy{}; }

// Built ACKs view ranges placed on an arena; one serves the whole binary.
sim::Arena& TestArena() {
  static sim::Arena arena;
  return arena;
}

TEST(AckManager, DuplicateDetection) {
  AckManager manager(PacketNumberSpace::kInitial, DefaultPolicy());
  EXPECT_TRUE(manager.OnPacketReceived(0, true, 0));
  EXPECT_FALSE(manager.OnPacketReceived(0, true, 1));
  EXPECT_TRUE(manager.OnPacketReceived(1, true, 2));
}

TEST(AckManager, InitialSpaceAcksImmediately) {
  AckManager manager(PacketNumberSpace::kInitial, DefaultPolicy());
  manager.OnPacketReceived(0, /*ack_eliciting=*/true, 0);
  EXPECT_TRUE(manager.ShouldAckImmediately());
}

TEST(AckManager, NonAckElicitingNeverForcesAck) {
  AckManager manager(PacketNumberSpace::kInitial, DefaultPolicy());
  manager.OnPacketReceived(0, /*ack_eliciting=*/false, 0);
  EXPECT_FALSE(manager.ShouldAckImmediately());
  EXPECT_FALSE(manager.HasPendingAck());
}

TEST(AckManager, AppSpaceWaitsForPacketTolerance) {
  AckManager manager(PacketNumberSpace::kAppData, DefaultPolicy());
  manager.OnPacketReceived(0, true, 0);
  EXPECT_FALSE(manager.ShouldAckImmediately());
  manager.OnPacketReceived(1, true, sim::Millis(1));
  EXPECT_TRUE(manager.ShouldAckImmediately());
}

TEST(AckManager, AppSpaceAckDeadlineIsMaxAckDelay) {
  AckPolicy policy;
  policy.max_ack_delay = sim::Millis(25);
  AckManager manager(PacketNumberSpace::kAppData, policy);
  EXPECT_EQ(manager.AckDeadline(), sim::kNever);
  manager.OnPacketReceived(0, true, sim::Millis(10));
  EXPECT_EQ(manager.AckDeadline(), sim::Millis(35));
}

TEST(AckManager, BuildAckCoversReceivedRanges) {
  AckManager manager(PacketNumberSpace::kInitial, DefaultPolicy());
  manager.OnPacketReceived(0, true, 0);
  manager.OnPacketReceived(1, true, 0);
  manager.OnPacketReceived(3, true, 0);
  const auto ack = manager.BuildAck(sim::Millis(1), TestArena());
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->largest_acked, 3u);
  ASSERT_EQ(ack->ranges.size(), 2u);
  EXPECT_EQ(ack->ranges[0].first, 3u);  // descending order
  EXPECT_EQ(ack->ranges[1].first, 0u);
  EXPECT_EQ(ack->ranges[1].last, 1u);
  EXPECT_TRUE(ack->Acks(0));
  EXPECT_TRUE(ack->Acks(3));
  EXPECT_FALSE(ack->Acks(2));
}

TEST(AckManager, BuildAckResetsPendingState) {
  AckManager manager(PacketNumberSpace::kInitial, DefaultPolicy());
  manager.OnPacketReceived(0, true, 0);
  EXPECT_TRUE(manager.HasPendingAck());
  manager.BuildAck(0, TestArena());
  EXPECT_FALSE(manager.HasPendingAck());
  EXPECT_FALSE(manager.ShouldAckImmediately());
}

TEST(AckManager, BuildAckEmptyWhenNothingReceived) {
  AckManager manager(PacketNumberSpace::kInitial, DefaultPolicy());
  EXPECT_FALSE(manager.BuildAck(0, TestArena()).has_value());
}

TEST(AckManager, ActualAckDelayReported) {
  AckPolicy policy;
  policy.report_mode = AckDelayReportMode::kActual;
  AckManager manager(PacketNumberSpace::kAppData, policy);
  manager.OnPacketReceived(0, true, sim::Millis(10));
  const auto ack = manager.BuildAck(sim::Millis(14), TestArena());
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->ack_delay, sim::Millis(4));
}

TEST(AckManager, ZeroReportModeAlwaysZero) {
  // Table 3: ngtcp2, quic-go, nginx, ... report ACK Delay 0.
  AckPolicy policy;
  policy.report_mode = AckDelayReportMode::kZero;
  AckManager manager(PacketNumberSpace::kInitial, policy);
  manager.OnPacketReceived(0, true, sim::Millis(10));
  const auto ack = manager.BuildAck(sim::Millis(30), TestArena());
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->ack_delay, 0);
}

TEST(AckManager, FixedReportModeUsesConfiguredValue) {
  // s2n-quic-style: a fixed delay exceeding the RTT (Table 3: 14-15 ms).
  AckPolicy policy;
  policy.report_mode = AckDelayReportMode::kFixed;
  policy.fixed_report_value = sim::Millis(14);
  AckManager manager(PacketNumberSpace::kInitial, policy);
  manager.OnPacketReceived(0, true, 0);
  const auto ack = manager.BuildAck(sim::Millis(1), TestArena());
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->ack_delay, sim::Millis(14));
}

TEST(AckManager, RangeMergingAcrossInsertOrders) {
  AckManager manager(PacketNumberSpace::kInitial, DefaultPolicy());
  // Insert out of order; ranges must merge to one.
  for (std::uint64_t pn : {4u, 0u, 2u, 1u, 3u}) manager.OnPacketReceived(pn, true, 0);
  const auto ack = manager.BuildAck(0, TestArena());
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->ranges.size(), 1u);
  EXPECT_EQ(ack->ranges[0].first, 0u);
  EXPECT_EQ(ack->ranges[0].last, 4u);
}

TEST(AckManager, BuiltRangesSurviveLaterReceipts) {
  // An ACK may sit in a pending queue (a congestion-blocked flush puts it
  // back) while more packets arrive: its arena-placed ranges must keep
  // describing what it acknowledged when it was built.
  AckManager manager(PacketNumberSpace::kAppData, DefaultPolicy());
  manager.OnPacketReceived(0, true, 0);
  manager.OnPacketReceived(2, true, 0);
  const auto first = manager.BuildAck(0, TestArena());
  ASSERT_TRUE(first.has_value());
  for (std::uint64_t pn : {1u, 3u, 5u}) manager.OnPacketReceived(pn, true, 0);
  const auto second = manager.BuildAck(0, TestArena());
  ASSERT_TRUE(second.has_value());

  ASSERT_EQ(first->ranges.size(), 2u);
  EXPECT_EQ(first->ranges[0].first, 2u);
  EXPECT_EQ(first->ranges[0].last, 2u);
  EXPECT_EQ(first->ranges[1].first, 0u);
  EXPECT_EQ(first->ranges[1].last, 0u);
  EXPECT_FALSE(first->Acks(1));
  ASSERT_EQ(second->ranges.size(), 2u);
  EXPECT_EQ(second->ranges[0].first, 5u);
  EXPECT_EQ(second->ranges[1].last, 3u);
  EXPECT_NE(first->ranges.data, second->ranges.data);
}

TEST(AckManager, LargestReceivedTracksMaximum) {
  AckManager manager(PacketNumberSpace::kAppData, DefaultPolicy());
  EXPECT_FALSE(manager.largest_received().has_value());
  manager.OnPacketReceived(7, true, 0);
  manager.OnPacketReceived(3, true, 0);
  EXPECT_EQ(*manager.largest_received(), 7u);
}

}  // namespace
}  // namespace quicer::quic
