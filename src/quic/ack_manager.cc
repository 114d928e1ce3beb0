#include "quic/ack_manager.h"

#include <algorithm>
#include <new>

namespace quicer::quic {

AckManager::AckManager(PacketNumberSpace space, AckPolicy policy)
    : space_(space), policy_(policy) {}

void AckManager::Reset(AckPolicy policy) {
  policy_ = policy;
  received_.clear();
  largest_received_.reset();
  largest_ack_eliciting_time_ = 0;
  pending_ack_eliciting_ = 0;
}

bool AckManager::OnPacketReceived(std::uint64_t pn, bool ack_eliciting, sim::Time now) {
  // Find insertion point among merged ranges.
  auto it = std::lower_bound(received_.begin(), received_.end(), pn,
                             [](const PnRange& r, std::uint64_t v) { return r.last < v; });
  if (it != received_.end() && it->Contains(pn)) return false;  // duplicate

  if (it != received_.end() && it->first == pn + 1) {
    it->first = pn;  // extend downwards
    if (it != received_.begin()) {
      auto prev = std::prev(it);
      if (prev->last + 1 == it->first) {
        prev->last = it->last;
        received_.erase(it);
      }
    }
  } else if (it != received_.begin() && std::prev(it)->last + 1 == pn) {
    std::prev(it)->last = pn;  // extend upwards
  } else {
    received_.insert(it, PnRange{pn, pn});
  }

  if (!largest_received_ || pn > *largest_received_) largest_received_ = pn;
  if (ack_eliciting) {
    if (pending_ack_eliciting_ == 0) largest_ack_eliciting_time_ = now;
    ++pending_ack_eliciting_;
  }
  return true;
}

bool AckManager::ShouldAckImmediately() const {
  if (pending_ack_eliciting_ == 0) return false;
  if (space_ != PacketNumberSpace::kAppData) return true;
  return pending_ack_eliciting_ >= policy_.packet_tolerance;
}

sim::Time AckManager::AckDeadline() const {
  if (pending_ack_eliciting_ == 0) return sim::kNever;
  if (space_ != PacketNumberSpace::kAppData) return largest_ack_eliciting_time_;
  return largest_ack_eliciting_time_ + policy_.max_ack_delay;
}

std::optional<AckFrame> AckManager::BuildAck(sim::Time now, sim::Arena& arena) {
  if (received_.empty()) return std::nullopt;
  AckFrame ack;
  ack.largest_acked = *largest_received_;
  switch (policy_.report_mode) {
    case AckDelayReportMode::kActual:
      ack.ack_delay = pending_ack_eliciting_ > 0 ? now - largest_ack_eliciting_time_ : 0;
      break;
    case AckDelayReportMode::kZero:
      ack.ack_delay = 0;
      break;
    case AckDelayReportMode::kFixed:
      ack.ack_delay = policy_.fixed_report_value;
      break;
  }
  // ACK ranges are listed from the largest downwards.
  PnRange* ranges = arena.AllocateUninitialized<PnRange>(received_.size());
  PnRange* out = ranges;
  for (auto it = received_.rbegin(); it != received_.rend(); ++it) {
    ::new (static_cast<void*>(out++)) PnRange(*it);
  }
  ack.ranges = {ranges, received_.size()};
  pending_ack_eliciting_ = 0;
  return ack;
}

}  // namespace quicer::quic
