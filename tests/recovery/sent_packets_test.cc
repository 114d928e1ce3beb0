#include "recovery/sent_packets.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "sim/arena.h"
#include "sim/rng.h"

namespace quicer::recovery {
namespace {

SentPacket MakePacket(std::uint64_t pn, sim::Time sent, bool ack_eliciting = true,
                      std::size_t bytes = 1200) {
  SentPacket packet;
  packet.packet_number = pn;
  packet.sent_time = sent;
  packet.bytes = bytes;
  packet.ack_eliciting = ack_eliciting;
  packet.in_flight = ack_eliciting;
  return packet;
}

/// ACK frames view their ranges; the hand-built ones of these tests place
/// them on one arena that lives as long as the binary.
sim::Arena& TestArena() {
  static sim::Arena arena;
  return arena;
}

quic::AckFrame AckWithRanges(std::uint64_t largest_acked,
                             std::initializer_list<quic::PnRange> ranges) {
  quic::AckFrame ack;
  ack.largest_acked = largest_acked;
  ack.ranges = TestArena().Copy(ranges.begin(), ranges.size());
  return ack;
}

/// One single-packet range per pn, in the order given.
quic::AckFrame AckOf(std::initializer_list<std::uint64_t> pns, sim::Duration delay = 0) {
  std::vector<quic::PnRange> ranges;
  quic::AckFrame ack;
  ack.ack_delay = delay;
  for (std::uint64_t pn : pns) {
    ranges.push_back(quic::PnRange{pn, pn});
    ack.largest_acked = std::max(ack.largest_acked, pn);
  }
  ack.ranges = TestArena().Copy(ranges.data(), ranges.size());
  return ack;
}

TEST(SentPacketLedger, AckRemovesPacketsAndReportsBytes) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0));
  ledger.OnPacketSent(MakePacket(1, 10));
  EXPECT_EQ(ledger.bytes_in_flight(), 2400u);

  const AckResult result = ledger.OnAckReceived(AckOf({0, 1}), sim::Millis(50));
  EXPECT_EQ(result.newly_acked.size(), 2u);
  EXPECT_EQ(result.newly_acked_bytes, 2400u);
  EXPECT_EQ(ledger.bytes_in_flight(), 0u);
  EXPECT_EQ(ledger.unacked_count(), 0u);
}

TEST(SentPacketLedger, RttSampleOnlyWhenLargestNewlyAckedIsAckEliciting) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0, /*ack_eliciting=*/true));
  const AckResult result = ledger.OnAckReceived(AckOf({0}), sim::Millis(30));
  EXPECT_TRUE(result.rtt_sample_available);
  EXPECT_EQ(result.latest_rtt, sim::Millis(30));
}

TEST(SentPacketLedger, NoRttSampleWhenLargestAckedUnknown) {
  // The instant-ACK asymmetry: a pure-ACK packet is not tracked, so an ACK
  // of it gives no sample.
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0));
  // Peer acks pn 5 (a pure-ACK packet we never registered) plus pn 0.
  quic::AckFrame ack = AckOf({0, 5});
  const AckResult result = ledger.OnAckReceived(ack, sim::Millis(30));
  EXPECT_FALSE(result.rtt_sample_available);
  EXPECT_TRUE(result.any_ack_eliciting_newly_acked);
}

TEST(SentPacketLedger, DuplicateAckYieldsNothingNew) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0));
  ledger.OnAckReceived(AckOf({0}), sim::Millis(10));
  const AckResult again = ledger.OnAckReceived(AckOf({0}), sim::Millis(20));
  EXPECT_TRUE(again.newly_acked.empty());
  EXPECT_FALSE(again.rtt_sample_available);
}

TEST(SentPacketLedger, PacketThresholdLossAfterThreeNewerAcked) {
  SentPacketLedger ledger;
  for (std::uint64_t pn = 0; pn <= 3; ++pn) ledger.OnPacketSent(MakePacket(pn, 0));
  // Ack 3 only: pn 0 is kPacketThreshold=3 behind -> lost; 1,2 not yet.
  ledger.OnAckReceived(AckOf({3}), sim::Millis(10));
  const auto lost = ledger.DetectLoss(sim::Millis(10), sim::Seconds(10));
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].packet_number, 0u);
  EXPECT_EQ(ledger.unacked_count(), 2u);
}

TEST(SentPacketLedger, TimeThresholdLoss) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0));
  ledger.OnPacketSent(MakePacket(1, sim::Millis(5)));
  ledger.OnAckReceived(AckOf({1}), sim::Millis(10));
  // loss_delay 8 ms: pn 0 sent at 0 is over the threshold at t=10.
  const auto lost = ledger.DetectLoss(sim::Millis(10), sim::Millis(8));
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].packet_number, 0u);
}

TEST(SentPacketLedger, LossTimeSetForNotYetLostPackets) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, sim::Millis(9)));
  ledger.OnPacketSent(MakePacket(1, sim::Millis(10)));
  ledger.OnAckReceived(AckOf({1}), sim::Millis(12));
  const auto lost = ledger.DetectLoss(sim::Millis(12), sim::Millis(20));
  EXPECT_TRUE(lost.empty());
  EXPECT_EQ(ledger.loss_time(), sim::Millis(29));  // 9 + 20
}

TEST(SentPacketLedger, NoLossDetectionBeforeAnyAck) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0));
  const auto lost = ledger.DetectLoss(sim::Seconds(10), sim::Millis(1));
  EXPECT_TRUE(lost.empty());
  EXPECT_EQ(ledger.loss_time(), sim::kNever);
}

TEST(SentPacketLedger, HasAckElicitingInFlight) {
  SentPacketLedger ledger;
  EXPECT_FALSE(ledger.HasAckElicitingInFlight());
  ledger.OnPacketSent(MakePacket(0, 0));
  EXPECT_TRUE(ledger.HasAckElicitingInFlight());
  ledger.OnAckReceived(AckOf({0}), sim::Millis(1));
  EXPECT_FALSE(ledger.HasAckElicitingInFlight());
}

TEST(SentPacketLedger, LastAckElicitingSentTime) {
  SentPacketLedger ledger;
  EXPECT_FALSE(ledger.LastAckElicitingSentTime().has_value());
  ledger.OnPacketSent(MakePacket(0, sim::Millis(3)));
  ledger.OnPacketSent(MakePacket(1, sim::Millis(7)));
  ASSERT_TRUE(ledger.LastAckElicitingSentTime().has_value());
  EXPECT_EQ(*ledger.LastAckElicitingSentTime(), sim::Millis(7));
}

TEST(SentPacketLedger, OutstandingRetransmittableCollectsFrames) {
  SentPacketLedger ledger;
  SentPacket packet = MakePacket(0, 0);
  // Backing storage stands in for the run arena; the ledger only sees spans.
  quic::Frame backing[] = {quic::CryptoFrame{0, 100, tls::MessageType::kClientHello}};
  packet.retransmittable = FrameSpan{backing, 1};
  ledger.OnPacketSent(std::move(packet));
  const auto frames = ledger.OutstandingRetransmittable();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<quic::CryptoFrame>(frames[0]));
}

TEST(SentPacketLedger, ClearReleasesEverything) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, 0));
  ledger.OnPacketSent(MakePacket(1, 0));
  ledger.Clear();
  EXPECT_EQ(ledger.bytes_in_flight(), 0u);
  EXPECT_EQ(ledger.unacked_count(), 0u);
  EXPECT_FALSE(ledger.HasAckElicitingInFlight());
}

TEST(SentPacketLedger, OutstandingPnsAscending) {
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(2, 0));
  EXPECT_EQ(ledger.out_of_order_sends(), 0u);
  ledger.OnPacketSent(MakePacket(0, 0));
  ledger.OnPacketSent(MakePacket(1, 0));
  EXPECT_EQ(ledger.OutstandingPns(), (std::vector<std::uint64_t>{0, 1, 2}));
  // Both late arrivals took the (counted) repair path.
  EXPECT_EQ(ledger.out_of_order_sends(), 2u);
}

TEST(SentPacketLedger, AckRangesCoverOnlyContainedPns) {
  SentPacketLedger ledger;
  for (std::uint64_t pn = 0; pn < 5; ++pn) ledger.OnPacketSent(MakePacket(pn, 0));
  const quic::AckFrame ack = AckWithRanges(4, {quic::PnRange{3, 4}, quic::PnRange{0, 0}});
  const AckResult result = ledger.OnAckReceived(ack, sim::Millis(10));
  EXPECT_EQ(result.newly_acked.size(), 3u);
  EXPECT_TRUE(ledger.IsOutstanding(1));
  EXPECT_TRUE(ledger.IsOutstanding(2));
}

TEST(SentPacketLedger, NonCanonicalRangesMatchTheirCanonicalForm) {
  // Ascending, overlapping and inverted (empty) ranges ack exactly the
  // packet numbers they cover, in ascending order.
  SentPacketLedger ledger;
  for (std::uint64_t pn = 0; pn < 10; ++pn) ledger.OnPacketSent(MakePacket(pn, 0));
  const quic::AckFrame ack =
      AckWithRanges(8, {quic::PnRange{1, 2}, quic::PnRange{7, 8}, quic::PnRange{6, 7},
                        quic::PnRange{5, 3}, quic::PnRange{2, 2}});
  const AckResult result = ledger.OnAckReceived(ack, sim::Millis(10));
  std::vector<std::uint64_t> acked;
  for (const SentPacket& packet : result.newly_acked) acked.push_back(packet.packet_number);
  EXPECT_EQ(acked, (std::vector<std::uint64_t>{1, 2, 6, 7, 8}));
  EXPECT_EQ(ledger.OutstandingPns(), (std::vector<std::uint64_t>{0, 3, 4, 5, 9}));
  ASSERT_TRUE(result.largest_newly_acked.has_value());
  EXPECT_EQ(result.largest_newly_acked->packet_number, 8u);
}

TEST(SentPacketLedger, LastAckElicitingSentTimeAfterEarlierTimestampedPush) {
  // A push stamped earlier than the newest record: the back is no longer
  // the latest send, so the ledger must fall back to the exact answer.
  SentPacketLedger ledger;
  ledger.OnPacketSent(MakePacket(0, sim::Millis(9)));
  ledger.OnPacketSent(MakePacket(1, sim::Millis(4)));
  ASSERT_TRUE(ledger.LastAckElicitingSentTime().has_value());
  EXPECT_EQ(*ledger.LastAckElicitingSentTime(), sim::Millis(9));
  // Draining the ledger restores the fast path.
  ledger.OnAckReceived(AckOf({0, 1}), sim::Millis(20));
  ledger.OnPacketSent(MakePacket(2, sim::Millis(21)));
  ledger.OnPacketSent(MakePacket(3, sim::Millis(22), /*ack_eliciting=*/false));
  EXPECT_EQ(*ledger.LastAckElicitingSentTime(), sim::Millis(21));
}

/// The linear ledger the head-indexed SentPacketLedger replaced, kept as the
/// reference model: every ACK tests every outstanding record against every
/// range and compacts the whole vector; loss detection and both PTO
/// queries scan everything outstanding.
class ReferenceLedger {
 public:
  void OnPacketSent(const SentPacket& packet) {
    if (packet.in_flight) bytes_in_flight_ += packet.bytes;
    unacked_.push_back(packet);
    if (unacked_.size() > 1 &&
        unacked_[unacked_.size() - 2].packet_number >= packet.packet_number) {
      ++out_of_order_sends_;
      const auto it = std::lower_bound(
          unacked_.begin(), unacked_.end() - 1, packet.packet_number,
          [](const SentPacket& entry, std::uint64_t pn) { return entry.packet_number < pn; });
      std::rotate(it, unacked_.end() - 1, unacked_.end());
    }
  }

  void OnAckReceivedInto(const quic::AckFrame& ack, sim::Time now, AckResult& result) {
    result = AckResult{};
    if (!largest_acked_ || ack.largest_acked > *largest_acked_) {
      largest_acked_ = ack.largest_acked;
    }
    auto keep = unacked_.begin();
    for (auto it = unacked_.begin(); it != unacked_.end(); ++it) {
      if (!ack.Acks(it->packet_number)) {
        *keep++ = *it;
        continue;
      }
      const SentPacket packet = *it;
      if (packet.in_flight) bytes_in_flight_ -= packet.bytes;
      result.newly_acked_bytes += packet.bytes;
      if (packet.ack_eliciting) result.any_ack_eliciting_newly_acked = true;
      if (packet.packet_number == ack.largest_acked) {
        SentPacket meta = packet;
        meta.retransmittable = FrameSpan{};
        result.largest_newly_acked = meta;
        if (packet.ack_eliciting) {
          result.rtt_sample_available = true;
          result.latest_rtt = now - packet.sent_time;
        }
      }
      result.newly_acked.push_back(packet);
    }
    unacked_.erase(keep, unacked_.end());
  }

  void DetectLossInto(sim::Time now, sim::Duration loss_delay, std::vector<SentPacket>& lost) {
    lost.clear();
    loss_time_ = sim::kNever;
    if (!largest_acked_) return;
    auto keep = unacked_.begin();
    for (auto it = unacked_.begin(); it != unacked_.end(); ++it) {
      const sim::Time lost_after = it->sent_time + loss_delay;
      if (it->packet_number < *largest_acked_ &&
          (*largest_acked_ - it->packet_number >= kPacketThreshold || lost_after <= now)) {
        if (it->in_flight) bytes_in_flight_ -= it->bytes;
        lost.push_back(*it);
        continue;
      }
      if (it->packet_number < *largest_acked_) loss_time_ = std::min(loss_time_, lost_after);
      *keep++ = *it;
    }
    unacked_.erase(keep, unacked_.end());
  }

  bool HasAckElicitingInFlight() const {
    return std::any_of(unacked_.begin(), unacked_.end(), [](const SentPacket& packet) {
      return packet.ack_eliciting && packet.in_flight;
    });
  }

  std::optional<sim::Time> LastAckElicitingSentTime() const {
    std::optional<sim::Time> latest;
    for (const SentPacket& packet : unacked_) {
      if (packet.ack_eliciting && (!latest || packet.sent_time > *latest)) {
        latest = packet.sent_time;
      }
    }
    return latest;
  }

  bool IsOutstanding(std::uint64_t pn) const {
    return std::any_of(unacked_.begin(), unacked_.end(),
                       [pn](const SentPacket& packet) { return packet.packet_number == pn; });
  }

  void Clear() {
    unacked_.clear();
    bytes_in_flight_ = 0;
    loss_time_ = sim::kNever;
  }

  void Reset() {
    Clear();
    largest_acked_.reset();
    out_of_order_sends_ = 0;
  }

  const std::vector<SentPacket>& unacked() const { return unacked_; }
  std::optional<std::uint64_t> largest_acked() const { return largest_acked_; }
  std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  sim::Time loss_time() const { return loss_time_; }
  std::uint64_t out_of_order_sends() const { return out_of_order_sends_; }

 private:
  std::vector<SentPacket> unacked_;
  std::optional<std::uint64_t> largest_acked_;
  std::size_t bytes_in_flight_ = 0;
  sim::Time loss_time_ = sim::kNever;
  std::uint64_t out_of_order_sends_ = 0;
};

bool SameRecord(const SentPacket& a, const SentPacket& b) {
  return a.packet_number == b.packet_number && a.sent_time == b.sent_time &&
         a.bytes == b.bytes && a.ack_eliciting == b.ack_eliciting &&
         a.in_flight == b.in_flight && a.retransmittable.data == b.retransmittable.data &&
         a.retransmittable.count == b.retransmittable.count;
}

testing::AssertionResult SameRecords(const char* what, const std::vector<SentPacket>& got,
                                     const std::vector<SentPacket>& want) {
  if (got.size() != want.size()) {
    return testing::AssertionFailure()
           << what << ": " << got.size() << " records, reference has " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!SameRecord(got[i], want[i])) {
      return testing::AssertionFailure() << what << "[" << i << "]: pn " << got[i].packet_number
                                         << ", reference pn " << want[i].packet_number;
    }
  }
  return testing::AssertionSuccess();
}

testing::AssertionResult SameAckResult(const AckResult& got, const AckResult& want) {
  if (auto same = SameRecords("newly_acked", got.newly_acked, want.newly_acked); !same) {
    return same;
  }
  if (got.largest_newly_acked.has_value() != want.largest_newly_acked.has_value() ||
      (got.largest_newly_acked &&
       !SameRecord(*got.largest_newly_acked, *want.largest_newly_acked))) {
    return testing::AssertionFailure() << "largest_newly_acked differs";
  }
  if (got.rtt_sample_available != want.rtt_sample_available ||
      got.latest_rtt != want.latest_rtt || got.newly_acked_bytes != want.newly_acked_bytes ||
      got.any_ack_eliciting_newly_acked != want.any_ack_eliciting_newly_acked) {
    return testing::AssertionFailure()
           << "ack summary differs: rtt " << got.rtt_sample_available << "/"
           << want.rtt_sample_available << " latest " << got.latest_rtt << "/"
           << want.latest_rtt << " bytes " << got.newly_acked_bytes << "/"
           << want.newly_acked_bytes;
  }
  return testing::AssertionSuccess();
}

/// Every query the sender makes, plus the outstanding records themselves.
testing::AssertionResult SameState(const SentPacketLedger& ledger,
                                   const ReferenceLedger& reference, sim::Rng& probe) {
  const std::vector<SentPacket>& want = reference.unacked();
  const OutstandingView view = ledger.Outstanding();
  if (auto same = SameRecords("outstanding", std::vector<SentPacket>(view.begin(), view.end()),
                              want);
      !same) {
    return same;
  }
  std::vector<std::uint64_t> want_pns;
  std::vector<const quic::Frame*> want_frames;
  for (const SentPacket& packet : want) {
    want_pns.push_back(packet.packet_number);
    for (const quic::Frame& frame : packet.retransmittable) want_frames.push_back(&frame);
  }
  if (ledger.OutstandingPns() != want_pns) return testing::AssertionFailure() << "OutstandingPns";
  const std::vector<quic::Frame> frames = ledger.OutstandingRetransmittable();
  if (frames.size() != want_frames.size()) {
    return testing::AssertionFailure() << "OutstandingRetransmittable size";
  }
  for (std::size_t i = 0; i < frames.size(); ++i) {
    // Every parked frame is a CRYPTO frame with a unique offset.
    if (std::get<quic::CryptoFrame>(frames[i]).offset !=
        std::get<quic::CryptoFrame>(*want_frames[i]).offset) {
      return testing::AssertionFailure() << "OutstandingRetransmittable[" << i << "]";
    }
  }
  if (ledger.unacked_count() != want.size()) return testing::AssertionFailure() << "count";
  if (ledger.bytes_in_flight() != reference.bytes_in_flight()) {
    return testing::AssertionFailure() << "bytes_in_flight " << ledger.bytes_in_flight()
                                       << ", reference " << reference.bytes_in_flight();
  }
  if (ledger.loss_time() != reference.loss_time()) {
    return testing::AssertionFailure() << "loss_time";
  }
  if (ledger.largest_acked() != reference.largest_acked()) {
    return testing::AssertionFailure() << "largest_acked";
  }
  if (ledger.out_of_order_sends() != reference.out_of_order_sends()) {
    return testing::AssertionFailure() << "out_of_order_sends";
  }
  if (ledger.HasAckElicitingInFlight() != reference.HasAckElicitingInFlight()) {
    return testing::AssertionFailure() << "HasAckElicitingInFlight";
  }
  if (ledger.LastAckElicitingSentTime() != reference.LastAckElicitingSentTime()) {
    return testing::AssertionFailure()
           << "LastAckElicitingSentTime " << ledger.LastAckElicitingSentTime().value_or(-1)
           << ", reference " << reference.LastAckElicitingSentTime().value_or(-1);
  }
  const std::int64_t top =
      want.empty() ? 4 : static_cast<std::int64_t>(want.back().packet_number) + 2;
  for (int i = 0; i < 4; ++i) {
    const auto pn = static_cast<std::uint64_t>(probe.UniformInt(0, top));
    if (ledger.IsOutstanding(pn) != reference.IsOutstanding(pn)) {
      return testing::AssertionFailure() << "IsOutstanding(" << pn << ")";
    }
  }
  return testing::AssertionSuccess();
}

/// An ACK for the differential stream: descending ranges of 1-12 packets
/// with 0-3 packet gaps (0 = adjacent) below a top about `lag` packets
/// behind the newest send (sometimes anywhere), delivered canonical,
/// ascending (as AckOf builds them), or unordered with overlapping and
/// inverted extras; a few carry no ranges or a largest_acked that is not
/// the top range's end.
quic::AckFrame MakeStreamAck(sim::Rng& rng, std::uint64_t next_pn, std::int64_t lag,
                             sim::Arena& arena) {
  quic::AckFrame ack;
  std::vector<quic::PnRange> ranges;
  // Shapes the list in `ranges`, then places it on `arena`.
  auto placed = [&]() {
    ack.ranges = arena.Copy(ranges.data(), ranges.size());
    return ack;
  };
  const std::int64_t newest = static_cast<std::int64_t>(next_pn) - 1;
  if (rng.Bernoulli(0.03)) {
    ack.largest_acked = static_cast<std::uint64_t>(std::max<std::int64_t>(0, newest));
    return ack;
  }
  const std::int64_t back = rng.Bernoulli(0.2) || lag == 0
                                ? rng.UniformInt(0, std::max<std::int64_t>(0, newest))
                                : lag + rng.UniformInt(-lag / 4, lag / 4);
  const std::int64_t top = std::max<std::int64_t>(0, newest - back);
  ack.largest_acked = static_cast<std::uint64_t>(top);
  std::int64_t at = top;
  for (std::int64_t n = rng.UniformInt(1, 8); n > 0 && at >= 0; --n) {
    const std::int64_t first = std::max<std::int64_t>(0, at - rng.UniformInt(0, 11));
    ranges.push_back(
        quic::PnRange{static_cast<std::uint64_t>(first), static_cast<std::uint64_t>(at)});
    at = first - 1 - rng.UniformInt(0, 3);
  }
  const double shape = rng.NextDouble();
  if (shape < 0.55) return placed();  // canonical, as AckManager emits
  if (shape < 0.75) {
    std::reverse(ranges.begin(), ranges.end());
    return placed();
  }
  if (shape < 0.95) {
    const std::size_t base = ranges.size();
    for (std::size_t i = 0; i < base; ++i) {
      const quic::PnRange range = ranges[i];
      if (rng.Bernoulli(0.5)) {
        const auto span = static_cast<std::int64_t>(range.last - range.first);
        ranges.push_back(quic::PnRange{
            range.first + static_cast<std::uint64_t>(rng.UniformInt(0, span)),
            range.last + static_cast<std::uint64_t>(rng.UniformInt(0, 3))});
      }
    }
    if (rng.Bernoulli(0.3)) {
      ranges.push_back(quic::PnRange{ack.largest_acked + 3, ack.largest_acked});
    }
    for (std::size_t i = ranges.size(); i > 1; --i) {
      const auto other = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap(ranges[i - 1], ranges[other]);
    }
    return placed();
  }
  ack.largest_acked = static_cast<std::uint64_t>(
      std::max<std::int64_t>(0, top + rng.UniformInt(-3, 3)));
  return placed();
}

/// Drives both ledgers through one seeded stream and compares every output
/// and query after every call. Sends are mostly monotone, with late (out of
/// order) and occasionally repeated packet numbers, sent times stamped up
/// to 50 ms in the past, non-ack-eliciting and not-in-flight records, and
/// 0-2 parked CRYPTO frames each. ACKs (see MakeStreamAck, plus verbatim
/// duplicates of the previous one), loss detection with 1-20 ms delays,
/// Clear() and Reset() are interleaved; the ACK lag keeps up to a few
/// hundred packets outstanding, so the retired prefix is reclaimed many
/// times per stream.
void ExpectMatchesReference(std::uint64_t seed, std::int64_t lag) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << ", lag " << lag);
  constexpr int kSteps = 20000;
  sim::Rng rng(seed);
  sim::Rng probe(seed ^ 0x5eed);
  SentPacketLedger ledger;
  ReferenceLedger reference;
  // ACK ranges of this stream; valid for all of it, like a run's.
  sim::Arena arena;
  // Parked frames; reserved up front so the spans stay valid.
  std::vector<quic::Frame> parked;
  parked.reserve(2 * kSteps);
  std::vector<std::uint64_t> skipped;  // left out of the sequence, sent late
  std::uint64_t next_pn = 0;
  sim::Time clock = 0;
  quic::AckFrame previous_ack;
  AckResult got;
  AckResult want;
  std::vector<SentPacket> lost_got;
  std::vector<SentPacket> lost_want;

  for (int step = 0; step < kSteps; ++step) {
    clock += rng.UniformInt(0, 2 * sim::kMillisecond);
    const double op = rng.NextDouble();
    if (op < 0.55) {
      SentPacket packet;
      if (!skipped.empty() && rng.Bernoulli(0.08)) {
        const auto at = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(skipped.size()) - 1));
        packet.packet_number = skipped[at];
        skipped.erase(skipped.begin() + static_cast<std::ptrdiff_t>(at));
      } else if (next_pn > 0 && rng.Bernoulli(0.005)) {
        packet.packet_number =
            static_cast<std::uint64_t>(rng.UniformInt(0, static_cast<std::int64_t>(next_pn) - 1));
      } else {
        if (rng.Bernoulli(0.05)) skipped.push_back(next_pn++);
        packet.packet_number = next_pn++;
      }
      packet.sent_time = rng.Bernoulli(0.04)
                             ? std::max<sim::Time>(0, clock - rng.UniformInt(0, sim::Millis(50)))
                             : clock;
      packet.bytes = static_cast<std::size_t>(rng.UniformInt(20, 1500));
      packet.ack_eliciting = rng.Bernoulli(0.85);
      packet.in_flight = packet.ack_eliciting ? rng.Bernoulli(0.95) : rng.Bernoulli(0.5);
      const auto frames = static_cast<std::uint32_t>(rng.UniformInt(0, 2));
      if (frames > 0) {
        packet.retransmittable = FrameSpan{parked.data() + parked.size(), frames};
        for (std::uint32_t i = 0; i < frames; ++i) {
          parked.emplace_back(
              quic::CryptoFrame{parked.size(), 100, tls::MessageType::kCertificate});
        }
      }
      ledger.OnPacketSent(packet);
      reference.OnPacketSent(packet);
    } else if (op < 0.85) {
      const quic::AckFrame ack =
          rng.Bernoulli(0.05) ? previous_ack : MakeStreamAck(rng, next_pn, lag, arena);
      ledger.OnAckReceivedInto(ack, clock, got);
      reference.OnAckReceivedInto(ack, clock, want);
      ASSERT_TRUE(SameAckResult(got, want)) << "ack at step " << step;
      previous_ack = ack;
    } else if (op < 0.999) {
      const sim::Duration loss_delay = rng.UniformInt(1, 20) * sim::kMillisecond;
      ledger.DetectLossInto(clock, loss_delay, lost_got);
      reference.DetectLossInto(clock, loss_delay, lost_want);
      ASSERT_TRUE(SameRecords("lost", lost_got, lost_want)) << "loss at step " << step;
    } else if (op < 0.9995) {
      ledger.Clear();
      reference.Clear();
    } else {
      ledger.Reset();
      reference.Reset();
      next_pn = 0;
      skipped.clear();
    }
    ASSERT_TRUE(SameState(ledger, reference, probe)) << "step " << step;
  }
}

TEST(SentPacketLedger, MatchesLinearReferenceLedger) {
  std::uint64_t seed = 1;
  for (std::int64_t lag : {0, 3, 40, 300}) {
    for (int run = 0; run < 2; ++run) ExpectMatchesReference(seed++, lag);
  }
}

}  // namespace
}  // namespace quicer::recovery
