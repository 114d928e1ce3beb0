#include "recovery/sent_packets.h"

#include <algorithm>
#include <utility>

namespace quicer::recovery {
namespace {

/// Dead-prefix length below which a reclaim pass is not worth its moves.
constexpr std::size_t kMinReclaim = 64;

bool PnBelow(const SentPacket& entry, std::uint64_t pn) { return entry.packet_number < pn; }
bool PnAbove(std::uint64_t pn, const SentPacket& entry) { return pn < entry.packet_number; }

/// The form AckManager emits: descending, disjoint, each first <= last.
bool IsCanonical(sim::Span<const quic::PnRange> ranges) {
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].first > ranges[i].last) return false;
    if (i > 0 && ranges[i].last >= ranges[i - 1].first) return false;
  }
  return true;
}

/// Writes the canonical form of `ranges` — same covered packet numbers,
/// inverted (empty) ranges dropped, overlaps merged — into `out`.
void Canonicalise(sim::Span<const quic::PnRange> ranges, std::vector<quic::PnRange>& out) {
  out.clear();
  for (const quic::PnRange& range : ranges) {
    if (range.first <= range.last) out.push_back(range);
  }
  std::sort(out.begin(), out.end(),
            [](const quic::PnRange& a, const quic::PnRange& b) { return a.first < b.first; });
  std::size_t kept = 0;
  for (const quic::PnRange& range : out) {
    if (kept > 0 && range.first <= out[kept - 1].last) {
      out[kept - 1].last = std::max(out[kept - 1].last, range.last);
    } else {
      out[kept++] = range;
    }
  }
  out.resize(kept);
  std::reverse(out.begin(), out.end());
}

}  // namespace

void SentPacketLedger::OnPacketSent(SentPacket packet) {
  if (packet.in_flight) {
    bytes_in_flight_ += packet.bytes;
    if (packet.ack_eliciting) ++ack_eliciting_in_flight_;
  }
  // An empty ledger has no retired prefix (ReclaimPrefix drops it as the
  // last live record goes), so back() is always the newest live record.
  if (!unacked_.empty() && packet.sent_time < unacked_.back().sent_time) {
    sent_times_sorted_ = false;
  }
  // Packet numbers are assigned monotonically per space (Connection's
  // next_pn++), so an append IS the insert.
  unacked_.push_back(packet);
  if (unacked_.size() - head_ > 1 &&
      unacked_[unacked_.size() - 2].packet_number >= packet.packet_number) {
    // Out-of-order repair path: no Connection code path reaches this (the
    // counter proves it); it exists for direct ledger users that replay
    // packets out of sequence. Rotate the late record into its sorted slot.
    ++out_of_order_sends_;
    sent_times_sorted_ = false;
    const auto live = unacked_.begin() + static_cast<std::ptrdiff_t>(head_);
    const auto it = std::lower_bound(live, unacked_.end() - 1, packet.packet_number, PnBelow);
    std::rotate(it, unacked_.end() - 1, unacked_.end());
  }
}

AckResult SentPacketLedger::OnAckReceived(const quic::AckFrame& ack, sim::Time now) {
  AckResult result;
  OnAckReceivedInto(ack, now, result);
  return result;
}

void SentPacketLedger::OnAckReceivedInto(const quic::AckFrame& ack, sim::Time now,
                                         AckResult& result) {
  result.newly_acked.clear();
  result.largest_newly_acked.reset();
  result.rtt_sample_available = false;
  result.latest_rtt = 0;
  result.newly_acked_bytes = 0;
  result.any_ack_eliciting_newly_acked = false;

  if (!largest_acked_ || ack.largest_acked > *largest_acked_) {
    largest_acked_ = ack.largest_acked;
  }

  sim::Span<const quic::PnRange> ranges = ack.ranges;
  if (!IsCanonical(ranges)) {
    Canonicalise(ranges, range_scratch_);
    ranges = range_scratch_;
  }
  if (ranges.empty()) return;

  // Only records inside [smallest acked, largest acked] can be acked; the
  // (usually much larger) part of the flight above the window is untouched.
  SentPacket* const live = unacked_.data() + head_;
  SentPacket* const end = unacked_.data() + unacked_.size();
  const std::uint64_t smallest = ranges.back().first;
  // Most ACKs start at or below the oldest outstanding packet: skip the
  // search then.
  SentPacket* const lo = live == end || live->packet_number >= smallest
                             ? live
                             : std::lower_bound(live + 1, end, smallest, PnBelow);
  SentPacket* const hi = std::upper_bound(lo, end, ranges.front().last, PnAbove);

  // Walk the window downward with the descending ranges in step. Acked
  // records go to the result; survivors (holes between ranges) pack
  // against `hi`, so the retired slots collect at the bottom.
  const quic::PnRange* range = ranges.data;
  SentPacket* keep = hi;
  for (SentPacket* it = hi; it != lo;) {
    --it;
    const std::uint64_t pn = it->packet_number;
    // Terminates: pn >= the last range's first (the window's lower bound).
    while (pn < range->first) ++range;
    if (pn > range->last) {
      if (--keep != it) *keep = *it;
      continue;
    }
    Retire(*it);
    result.newly_acked_bytes += it->bytes;
    if (it->ack_eliciting) result.any_ack_eliciting_newly_acked = true;
    if (pn == ack.largest_acked) {
      // Metadata copy only: the frames stay with the newly_acked entry, so
      // filling this field never allocates. The downward walk meets the
      // newest record first, as the ascending pass it replaced left it.
      if (!result.largest_newly_acked) {
        SentPacket& meta = result.largest_newly_acked.emplace();
        meta.packet_number = pn;
        meta.sent_time = it->sent_time;
        meta.bytes = it->bytes;
        meta.ack_eliciting = it->ack_eliciting;
        meta.in_flight = it->in_flight;
      }
      if (it->ack_eliciting && !result.rtt_sample_available) {
        result.rtt_sample_available = true;
        result.latest_rtt = now - it->sent_time;
      }
    }
    result.newly_acked.push_back(*it);
  }
  if (keep == lo) return;  // nothing acked

  // The holes below the window slide up behind the survivors.
  head_ = static_cast<std::size_t>(std::move_backward(live, lo, keep) - unacked_.data());
  std::reverse(result.newly_acked.begin(), result.newly_acked.end());
  ReclaimPrefix();
}

std::vector<SentPacket> SentPacketLedger::DetectLoss(sim::Time now, sim::Duration loss_delay) {
  std::vector<SentPacket> lost;
  DetectLossInto(now, loss_delay, lost);
  return lost;
}

void SentPacketLedger::DetectLossInto(sim::Time now, sim::Duration loss_delay,
                                      std::vector<SentPacket>& lost) {
  lost.clear();
  loss_time_ = sim::kNever;
  if (!largest_acked_) return;

  // Nothing at or above largest_acked can be lost: visit only the holes
  // below it, downward, packing survivors against `stop`.
  SentPacket* const live = unacked_.data() + head_;
  SentPacket* const stop =
      std::lower_bound(live, unacked_.data() + unacked_.size(), *largest_acked_, PnBelow);
  SentPacket* keep = stop;
  for (SentPacket* it = stop; it != live;) {
    --it;
    const bool lost_by_packets = *largest_acked_ - it->packet_number >= kPacketThreshold;
    const sim::Time lost_after = it->sent_time + loss_delay;
    const bool lost_by_time = lost_after <= now;
    if (lost_by_packets || lost_by_time) {
      Retire(*it);
      lost.push_back(*it);
    } else {
      loss_time_ = std::min(loss_time_, lost_after);
      if (--keep != it) *keep = *it;
    }
  }
  if (keep == live) return;  // nothing lost

  head_ = static_cast<std::size_t>(keep - unacked_.data());
  std::reverse(lost.begin(), lost.end());
  ReclaimPrefix();
}

void SentPacketLedger::Retire(const SentPacket& packet) {
  if (!packet.in_flight) return;
  bytes_in_flight_ -= packet.bytes;
  if (packet.ack_eliciting) --ack_eliciting_in_flight_;
}

void SentPacketLedger::ReclaimPrefix() {
  const std::size_t live = unacked_.size() - head_;
  if (live == 0) {
    unacked_.clear();
    head_ = 0;
    sent_times_sorted_ = true;
  } else if (head_ >= kMinReclaim && head_ >= live) {
    unacked_.erase(unacked_.begin(), unacked_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

std::optional<sim::Time> SentPacketLedger::LastAckElicitingSentTime() const {
  const OutstandingView view = Outstanding();
  if (sent_times_sorted_) {
    for (const SentPacket* it = view.end(); it != view.begin();) {
      --it;
      if (it->ack_eliciting) return it->sent_time;
    }
    return std::nullopt;
  }
  std::optional<sim::Time> latest;
  for (const SentPacket& packet : view) {
    if (packet.ack_eliciting) {
      if (!latest || packet.sent_time > *latest) latest = packet.sent_time;
    }
  }
  return latest;
}

std::vector<quic::Frame> SentPacketLedger::OutstandingRetransmittable() const {
  std::vector<quic::Frame> frames;
  for (const SentPacket& packet : Outstanding()) {
    frames.insert(frames.end(), packet.retransmittable.begin(), packet.retransmittable.end());
  }
  return frames;
}

std::vector<std::uint64_t> SentPacketLedger::OutstandingPns() const {
  std::vector<std::uint64_t> pns;
  pns.reserve(unacked_count());
  for (const SentPacket& packet : Outstanding()) pns.push_back(packet.packet_number);
  return pns;
}

bool SentPacketLedger::IsOutstanding(std::uint64_t pn) const {
  const OutstandingView view = Outstanding();
  const SentPacket* it = std::lower_bound(view.begin(), view.end(), pn, PnBelow);
  return it != view.end() && it->packet_number == pn;
}

void SentPacketLedger::Clear() {
  unacked_.clear();
  head_ = 0;
  ack_eliciting_in_flight_ = 0;
  sent_times_sorted_ = true;
  bytes_in_flight_ = 0;
  loss_time_ = sim::kNever;
  // largest_acked_ intentionally retained: packet numbers never reset.
}

void SentPacketLedger::Reset() {
  Clear();
  largest_acked_.reset();
  out_of_order_sends_ = 0;
}

}  // namespace quicer::recovery
