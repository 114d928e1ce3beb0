// Bounded bottleneck FIFO of one link direction.
//
// The legacy link models the bottleneck as an unbounded transmitter-busy
// clock: a datagram's departure is max(now, last departure) + its
// serialization time. BottleneckQueue keeps exactly that departure
// arithmetic but tracks the datagrams still waiting for (or on) the line,
// so occupancy is observable, a configurable depth (packets and/or wire
// bytes) bounds it, and arrivals at a full queue are tail-dropped. With
// unbounded depth the departure times are identical to the busy clock's;
// only drops and stats differ.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "netem/model.h"
#include "sim/time.h"

namespace quicer::netem {

class BottleneckQueue {
 public:
  struct Stats {
    std::uint64_t dropped = 0;    // arrivals tail-dropped at a full queue
    std::uint64_t max_pkts = 0;   // occupancy high-water marks, post-admission
    std::uint64_t max_bytes = 0;
  };

  BottleneckQueue() = default;
  explicit BottleneckQueue(const QueueModel& model) : model_(model) {}

  /// Re-arms the queue for a new run: new model, emptied, stats cleared.
  /// Unlike reassignment, this keeps the FIFO's capacity.
  void Reset(const QueueModel& model) {
    model_ = model;
    in_flight_.clear();
    head_ = 0;
    queued_bytes_ = 0;
    last_departure_ = 0;
    stats_ = Stats{};
  }

  /// True when the model wants FIFO queueing (vs. the legacy busy clock).
  bool active() const { return model_.kind == QueueModel::Kind::kFifo; }

  /// Offers one datagram of `wire_bytes` to the queue at time `now`.
  /// Returns its bottleneck departure time, or nullopt when the full queue
  /// tail-drops it. `bandwidth_bps` must be positive.
  std::optional<sim::Time> Enqueue(sim::Time now, std::size_t wire_bytes,
                                   double bandwidth_bps);

  /// Datagrams currently queued or serializing (departure > last Enqueue's
  /// `now`).
  std::size_t occupancy_pkts() const { return in_flight_.size() - head_; }
  std::size_t occupancy_bytes() const { return queued_bytes_; }

  const Stats& stats() const { return stats_; }

 private:
  QueueModel model_;
  /// (departure time, wire bytes) of admitted datagrams, departure order.
  /// The live entries are the suffix [head_, end): departures advance head_,
  /// and the dead prefix is dropped once it outgrows the live part, so the
  /// buffer's capacity is reused instead of freed and reallocated.
  std::vector<std::pair<sim::Time, std::size_t>> in_flight_;
  std::size_t head_ = 0;
  std::size_t queued_bytes_ = 0;
  sim::Time last_departure_ = 0;
  Stats stats_;
};

}  // namespace quicer::netem
