#include "sim/link.h"

#include <algorithm>
#include <utility>

#include "obs/telemetry.h"

namespace quicer::sim {

Link::Link(EventQueue& queue, Config config, Rng rng)
    : queue_(queue), config_(config), rng_(rng) {
  ApplyModel();
}

void Link::ApplyModel() {
  for (int dir : {netem::kUp, netem::kDown}) {
    const netem::PathOverride& path = config_.model.path[dir];
    bandwidth_bps_[dir] = path.bandwidth_bps.value_or(config_.bandwidth_bps);
    one_way_delay_[dir] = path.one_way_delay.value_or(config_.one_way_delay);
    jitter_[dir] = path.jitter.value_or(config_.jitter);
    loss_process_[dir] = netem::LossProcess(config_.model.loss[dir]);
    // Reset (not reassignment) so the FIFO keeps its capacity.
    bottleneck_[dir].Reset(config_.model.queue[dir]);
  }
}

void Link::ResetForRun(const Config& config, Rng rng, const LossPattern& loss) {
  config_ = config;
  rng_ = rng;
  loss_ = loss;
  drop_hook_ = nullptr;
  ApplyModel();
  for (int dir : {netem::kUp, netem::kDown}) {
    tx_free_[dir] = 0;
    next_index_[dir] = 1;
    stats_[dir] = DirectionStats{};
  }
}

std::uint64_t Link::Send(Direction direction, std::size_t bytes, DeliverFn deliver) {
  const int dir = static_cast<int>(direction);
  const std::uint64_t index = next_index_[dir]++;
  auto& stats = stats_[dir];
  ++stats.datagrams_sent;
  stats.bytes_sent += bytes;

  if (loss_.ShouldDrop(direction, index)) {
    ++stats.datagrams_dropped;
    ++stats.dropped_pattern;
    obs::Count(static_cast<obs::Counter>(obs::kNetemDropPatternUp + dir));
    if (drop_hook_) drop_hook_(direction, DropCause::kPattern, bytes);
    return index;
  }
  // Stochastic loss layers after the deterministic patterns; an inert
  // process draws nothing, keeping the legacy RNG stream intact.
  if (!loss_process_[dir].inert() && loss_process_[dir].ShouldDrop(rng_)) {
    ++stats.datagrams_dropped;
    ++stats.dropped_stochastic;
    obs::Count(static_cast<obs::Counter>(obs::kNetemDropStochasticUp + dir));
    if (drop_hook_) drop_hook_(direction, DropCause::kStochastic, bytes);
    return index;
  }
  obs::Count(static_cast<obs::Counter>(obs::kNetemEnqueuedUp + dir));

  const double bits =
      static_cast<double>(bytes + config_.header_overhead_bytes) * 8.0;
  Time serialised;
  if (bottleneck_[dir].active()) {
    const std::size_t wire = bytes + config_.header_overhead_bytes;
    const std::optional<Time> departure =
        bottleneck_[dir].Enqueue(queue_.now(), wire, bandwidth_bps_[dir]);
    const netem::BottleneckQueue::Stats& queue_stats = bottleneck_[dir].stats();
    stats.max_queue_pkts = queue_stats.max_pkts;
    stats.max_queue_bytes = queue_stats.max_bytes;
    obs::CountMax(static_cast<obs::Counter>(obs::kNetemMaxQueuePktsUp + dir),
                  queue_stats.max_pkts);
    obs::CountMax(static_cast<obs::Counter>(obs::kNetemMaxQueueBytesUp + dir),
                  queue_stats.max_bytes);
    if (!departure) {
      ++stats.datagrams_dropped;
      ++stats.dropped_queue;
      obs::Count(static_cast<obs::Counter>(obs::kNetemDropQueueUp + dir));
      if (drop_hook_) drop_hook_(direction, DropCause::kQueue, bytes);
      return index;
    }
    serialised = *departure;
  } else {
    // The transmitter serialises datagrams back to back; a datagram queued
    // while the transmitter is busy waits for the line to free up.
    const Time start = std::max(queue_.now(), tx_free_[dir]);
    serialised = start + static_cast<Duration>(bits / bandwidth_bps_[dir] *
                                               static_cast<double>(kSecond));
    tx_free_[dir] = serialised;
  }
  Time arrival = serialised + one_way_delay_[dir];
  if (jitter_[dir] > 0) {
    arrival += static_cast<Duration>(rng_.Uniform(0.0, static_cast<double>(jitter_[dir])));
  }

  queue_.ScheduleAt(arrival, [this, dir, deliver = std::move(deliver)]() mutable {
    ++stats_[dir].datagrams_delivered;
    deliver();
  });
  return index;
}

}  // namespace quicer::sim
