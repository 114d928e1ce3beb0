#include "netem/queue.h"

#include <algorithm>

namespace quicer::netem {

std::optional<sim::Time> BottleneckQueue::Enqueue(sim::Time now, std::size_t wire_bytes,
                                                  double bandwidth_bps) {
  // Retire datagrams that have fully left the bottleneck.
  while (head_ < in_flight_.size() && in_flight_[head_].first <= now) {
    queued_bytes_ -= in_flight_[head_].second;
    ++head_;
  }
  if (head_ == in_flight_.size()) {
    in_flight_.clear();
    head_ = 0;
  } else if (head_ >= in_flight_.size() - head_) {
    in_flight_.erase(in_flight_.begin(),
                     in_flight_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }

  // Tail-drop admission against the post-drain occupancy.
  const bool full =
      (model_.depth_pkts > 0 && occupancy_pkts() >= model_.depth_pkts) ||
      (model_.depth_bytes > 0 && queued_bytes_ + wire_bytes > model_.depth_bytes);
  if (full) {
    ++stats_.dropped;
    return std::nullopt;
  }

  // Same departure arithmetic as the legacy transmitter-busy clock.
  const sim::Time start = std::max(now, last_departure_);
  const double bits = static_cast<double>(wire_bytes) * 8.0;
  const sim::Time departure =
      start +
      static_cast<sim::Duration>(bits / bandwidth_bps * static_cast<double>(sim::kSecond));
  last_departure_ = departure;
  in_flight_.emplace_back(departure, wire_bytes);
  queued_bytes_ += wire_bytes;
  stats_.max_pkts = std::max<std::uint64_t>(stats_.max_pkts, occupancy_pkts());
  stats_.max_bytes = std::max<std::uint64_t>(stats_.max_bytes, queued_bytes_);
  return departure;
}

}  // namespace quicer::netem
