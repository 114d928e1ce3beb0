// Emulated bidirectional network path.
//
// Mirrors the QUIC Interop Runner setup the paper uses: symmetric one-way
// delay, a configurable bottleneck bandwidth (10 Mbit/s in all paper
// experiments), and a deterministic datagram-loss pattern. Payloads are
// opaque: the sender passes the datagram size plus a delivery closure, so the
// link has no dependency on the QUIC layer.
//
// Every datagram passes one loss pipeline: the index pattern (sim::LossPattern,
// the paper's §3 drops) first, then the direction's netem loss process
// (Bernoulli / Gilbert–Elliott, from Config::model) — the only source of
// stochastic loss — then the bottleneck queue (the free transmitter-busy
// clock, or a bounded tail-drop FIFO). The model also carries per-direction
// overrides of bandwidth / one-way delay / jitter. The default model
// reproduces the legacy symmetric pipe bit for bit — same arithmetic, same
// RNG draws.
#pragma once

#include <cstdint>
#include <functional>

#include "netem/loss_process.h"
#include "netem/model.h"
#include "netem/queue.h"
#include "sim/event_queue.h"
#include "sim/loss.h"
#include "sim/rng.h"
#include "sim/small_fn.h"
#include "sim/time.h"

namespace quicer::sim {

/// Point-to-point path between a client and a server.
class Link {
 public:
  /// Delivery closure type. Sized so a moved-in datagram (vector + index)
  /// plus the receiving endpoint pointer stay inline — the link's own
  /// delivery wrapper then also fits the event queue's inline budget, so a
  /// datagram in flight costs no heap allocation.
  using DeliverFn = SmallFn<48>;
  struct Config {
    /// Symmetric one-way delay (paper: 0.5 ms .. 150 ms).
    Duration one_way_delay = Millis(4.5);
    /// Bottleneck bandwidth in bits per second (paper: 10 Mbit/s).
    double bandwidth_bps = 10e6;
    /// Fixed per-datagram overhead added to serialisation (IP+UDP headers).
    std::size_t header_overhead_bytes = 28;
    /// Uniform per-datagram extra delay in [0, jitter]; values above the
    /// inter-datagram spacing reorder deliveries (robustness testing).
    Duration jitter = 0;
    /// Emulation models; the default is the legacy symmetric pipe. Path
    /// overrides in the model replace the symmetric values above per
    /// direction.
    netem::LinkModel model;
  };

  struct DirectionStats {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_dropped = 0;
    std::uint64_t datagrams_delivered = 0;
    std::uint64_t bytes_sent = 0;
    /// Breakdown of datagrams_dropped by cause.
    std::uint64_t dropped_pattern = 0;     // deterministic index patterns
    std::uint64_t dropped_stochastic = 0;  // Bernoulli / Gilbert–Elliott
    std::uint64_t dropped_queue = 0;       // bottleneck-queue AQM
    /// Bottleneck-queue occupancy high-water marks (0 under the legacy
    /// transmitter-clock model).
    std::uint64_t max_queue_pkts = 0;
    std::uint64_t max_queue_bytes = 0;
  };

  /// Which emulation stage dropped a datagram (for the drop hook / qlog).
  enum class DropCause { kPattern, kStochastic, kQueue };

  /// Observer invoked for every dropped datagram with the direction, cause
  /// and payload size. Null by default (the drop paths pay one branch);
  /// installed by qlog capture, cleared by ResetForRun. Must not draw
  /// randomness — the link's RNG stream is part of the deterministic
  /// scenario contract.
  using DropHook = std::function<void(Direction, DropCause, std::size_t)>;

  Link(EventQueue& queue, Config config, Rng rng);

  /// Rewinds the path to freshly-constructed state for context reuse between
  /// repetitions: new config and rng, datagram indices restarted, stats and
  /// queues emptied, `loss` installed as by set_loss_pattern.
  void ResetForRun(const Config& config, Rng rng, const LossPattern& loss);

  /// Installs the loss pattern applied to subsequent sends. Copy-assigns
  /// over the current one, so reinstalling a same-sized pattern every
  /// repetition reuses its storage instead of allocating.
  void set_loss_pattern(const LossPattern& pattern) { loss_ = pattern; }

  /// Installs (or clears, with nullptr) the drop observer.
  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Round trip time implied by the configured one-way delay.
  Duration rtt() const { return 2 * config_.one_way_delay; }

  const Config& config() const { return config_; }

  /// Transmits a datagram of `bytes` payload bytes in `direction`. On
  /// successful delivery, `deliver` runs at the arrival time. Returns the
  /// 1-based per-direction datagram index (assigned whether or not the
  /// datagram is dropped, matching how the paper counts datagrams).
  std::uint64_t Send(Direction direction, std::size_t bytes, DeliverFn deliver);

  /// The index the next Send in `direction` will assign — lets a sender
  /// stamp the datagram before moving it into the delivery closure.
  std::uint64_t PeekNextIndex(Direction direction) const {
    return next_index_[static_cast<int>(direction)];
  }

  const DirectionStats& stats(Direction direction) const {
    return stats_[static_cast<int>(direction)];
  }

 private:
  /// Resolves the per-direction path parameters from config_ (symmetric
  /// values with the model's overrides applied). Shared by the constructor
  /// and ResetForRun.
  void ApplyModel();

  EventQueue& queue_;
  Config config_;
  Rng rng_;
  LossPattern loss_;
  DropHook drop_hook_;
  // Per-direction resolved path parameters (symmetric config with the
  // model's overrides applied).
  double bandwidth_bps_[2];
  Duration one_way_delay_[2];
  Duration jitter_[2];
  netem::LossProcess loss_process_[2];
  netem::BottleneckQueue bottleneck_[2];
  // Earliest time the transmitter in each direction is free again; models the
  // bottleneck queue under the legacy transmitter-clock model.
  Time tx_free_[2] = {0, 0};
  std::uint64_t next_index_[2] = {1, 1};
  DirectionStats stats_[2];
};

}  // namespace quicer::sim
