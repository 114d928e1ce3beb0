#include "netem/queue.h"

#include <gtest/gtest.h>

#include "sim/time.h"

namespace quicer::netem {
namespace {

using sim::Millis;

QueueModel Fifo(std::size_t depth_pkts = 0, std::size_t depth_bytes = 0) {
  QueueModel model;
  model.kind = QueueModel::Kind::kFifo;
  model.depth_pkts = depth_pkts;
  model.depth_bytes = depth_bytes;
  return model;
}

// 1250 wire bytes at 10 Mbit/s serialize in exactly 1 ms.
constexpr double kBps = 10e6;
constexpr std::size_t kPkt = 1250;

TEST(BottleneckQueue, DefaultModelIsInactive) {
  BottleneckQueue queue;
  EXPECT_FALSE(queue.active());
}

TEST(BottleneckQueue, UnboundedDeparturesMatchTheBusyClock) {
  BottleneckQueue queue(Fifo());
  ASSERT_TRUE(queue.active());
  // Back-to-back arrivals at t=0: departures 1, 2, 3 ms — exactly the
  // legacy max(now, tx_free) + serialization arithmetic.
  EXPECT_EQ(queue.Enqueue(0, kPkt, kBps), std::optional<sim::Time>(Millis(1)));
  EXPECT_EQ(queue.Enqueue(0, kPkt, kBps), std::optional<sim::Time>(Millis(2)));
  EXPECT_EQ(queue.Enqueue(0, kPkt, kBps), std::optional<sim::Time>(Millis(3)));
  EXPECT_EQ(queue.occupancy_pkts(), 3u);
  // An arrival after the line went idle starts its own serialization.
  EXPECT_EQ(queue.Enqueue(Millis(10), kPkt, kBps), std::optional<sim::Time>(Millis(11)));
  EXPECT_EQ(queue.occupancy_pkts(), 1u);  // earlier departures drained
  EXPECT_EQ(queue.stats().dropped, 0u);
}

TEST(BottleneckQueue, PacketDepthTailDrops) {
  BottleneckQueue queue(Fifo(/*depth_pkts=*/2));
  EXPECT_TRUE(queue.Enqueue(0, kPkt, kBps).has_value());
  EXPECT_TRUE(queue.Enqueue(0, kPkt, kBps).has_value());
  EXPECT_FALSE(queue.Enqueue(0, kPkt, kBps).has_value());  // full: 2 queued
  EXPECT_EQ(queue.stats().dropped, 1u);
  EXPECT_EQ(queue.occupancy_pkts(), 2u);
  // After the head departs (t = 1 ms) there is room again.
  EXPECT_TRUE(queue.Enqueue(Millis(1), kPkt, kBps).has_value());
  EXPECT_EQ(queue.stats().dropped, 1u);
}

TEST(BottleneckQueue, ByteDepthTailDrops) {
  BottleneckQueue queue(Fifo(/*depth_pkts=*/0, /*depth_bytes=*/3000));
  EXPECT_TRUE(queue.Enqueue(0, kPkt, kBps).has_value());   // 1250
  EXPECT_TRUE(queue.Enqueue(0, kPkt, kBps).has_value());   // 2500
  EXPECT_FALSE(queue.Enqueue(0, kPkt, kBps).has_value());  // 3750 > 3000
  EXPECT_TRUE(queue.Enqueue(0, 500, kBps).has_value());    // 3000 fits exactly
  EXPECT_EQ(queue.stats().dropped, 1u);
  EXPECT_EQ(queue.occupancy_bytes(), 3000u);
}

TEST(BottleneckQueue, DropDoesNotAdvanceTheDepartureClock) {
  BottleneckQueue queue(Fifo(/*depth_pkts=*/1));
  EXPECT_EQ(queue.Enqueue(0, kPkt, kBps), std::optional<sim::Time>(Millis(1)));
  EXPECT_FALSE(queue.Enqueue(0, kPkt, kBps).has_value());
  // The dropped datagram consumed no line time: after the queue drains, a
  // fresh arrival at t = 1 ms departs at 2 ms, not 3 ms.
  EXPECT_EQ(queue.Enqueue(Millis(1), kPkt, kBps), std::optional<sim::Time>(Millis(2)));
}

TEST(BottleneckQueue, StatsTrackHighWaterMarks) {
  BottleneckQueue queue(Fifo(/*depth_pkts=*/8));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.Enqueue(0, kPkt, kBps).has_value());
  EXPECT_EQ(queue.stats().max_pkts, 5u);
  EXPECT_EQ(queue.stats().max_bytes, 5u * kPkt);
  // Draining does not lower the high-water marks.
  EXPECT_TRUE(queue.Enqueue(Millis(20), kPkt, kBps).has_value());
  EXPECT_EQ(queue.occupancy_pkts(), 1u);
  EXPECT_EQ(queue.stats().max_pkts, 5u);
}

}  // namespace
}  // namespace quicer::netem
