// Network-emulation models: the serializable data of an emulated path.
//
// The paper runs every experiment over one idealized pipe — symmetric
// one-way delay, fixed bottleneck bandwidth, deterministic per-datagram
// loss. This module makes the path pluggable: composable per-direction
// models for stochastic loss (independent Bernoulli, Gilbert–Elliott
// two-state bursty), the bottleneck queue discipline (legacy
// transmitter-busy clock, or a bounded tail-drop FIFO), and asymmetric
// path parameters (up/down bandwidth, one-way delay, jitter). These
// structs are pure data — the runtime state machines live in
// loss_process.h / queue.h, the JSON codec in codec.h — so a LinkModel
// serializes through scenario files and sweeps as a first-class axis. A
// default-constructed LinkModel reproduces the legacy pipe bit for bit.
#pragma once

#include <cstddef>
#include <optional>

#include "sim/time.h"

namespace quicer::netem {

/// Direction indices of the per-direction model arrays. "up" is
/// client->server, "down" is server->client — numerically identical to
/// sim::Direction, so sim::Link indexes both with one cast.
inline constexpr int kUp = 0;
inline constexpr int kDown = 1;

/// Stochastic per-datagram loss on one direction, applied after the
/// deterministic index patterns (sim::LossPattern). Draws come from the
/// link's per-repetition forked sim::Rng, so runs stay bit-identical
/// across thread counts and shards.
struct LossModel {
  enum class Kind {
    kNone,            // no stochastic loss (the paper's setting)
    kBernoulli,       // independent per-datagram loss with probability `rate`
    kGilbertElliott,  // two-state bursty loss (good/bad Markov chain)
  };
  Kind kind = Kind::kNone;
  /// kBernoulli: independent drop probability.
  double rate = 0.0;
  /// kGilbertElliott: per-datagram transition probabilities good->bad (`p`)
  /// and bad->good (`r`), and the drop probability inside each state. The
  /// classic Gilbert channel is loss_good = 0, loss_bad = 1.
  double p = 0.0;
  double r = 0.0;
  double loss_good = 0.0;
  double loss_bad = 1.0;

  bool IsDefault() const { return kind == Kind::kNone; }
  friend bool operator==(const LossModel& a, const LossModel& b) {
    return a.kind == b.kind && a.rate == b.rate && a.p == b.p && a.r == b.r &&
           a.loss_good == b.loss_good && a.loss_bad == b.loss_bad;
  }
  friend bool operator!=(const LossModel& a, const LossModel& b) { return !(a == b); }
};

/// Bottleneck queueing discipline of one direction.
struct QueueModel {
  enum class Kind {
    kTransmitterClock,  // legacy: unbounded, modeled as a busy clock
    kFifo,              // bounded tail-drop FIFO; serialization delay emerges from
                        // occupancy, arrivals while it is full are dropped
  };
  Kind kind = Kind::kTransmitterClock;
  /// Capacity in datagrams / wire bytes; 0 = unbounded in that unit. Both
  /// limits apply when both are set.
  std::size_t depth_pkts = 0;
  std::size_t depth_bytes = 0;

  bool IsDefault() const { return kind == Kind::kTransmitterClock; }
  friend bool operator==(const QueueModel& a, const QueueModel& b) {
    return a.kind == b.kind && a.depth_pkts == b.depth_pkts &&
           a.depth_bytes == b.depth_bytes;
  }
  friend bool operator!=(const QueueModel& a, const QueueModel& b) { return !(a == b); }
};

/// Per-direction overrides of the symmetric path parameters; an unset field
/// keeps the symmetric value from the experiment config.
struct PathOverride {
  std::optional<double> bandwidth_bps;
  std::optional<sim::Duration> one_way_delay;
  std::optional<sim::Duration> jitter;

  bool IsDefault() const {
    return !bandwidth_bps.has_value() && !one_way_delay.has_value() && !jitter.has_value();
  }
  friend bool operator==(const PathOverride& a, const PathOverride& b) {
    return a.bandwidth_bps == b.bandwidth_bps && a.one_way_delay == b.one_way_delay &&
           a.jitter == b.jitter;
  }
  friend bool operator!=(const PathOverride& a, const PathOverride& b) { return !(a == b); }
};

/// The complete emulation model of one bidirectional path, indexed by
/// kUp/kDown. Default-constructed = the legacy symmetric pipe.
struct LinkModel {
  LossModel loss[2];
  QueueModel queue[2];
  PathOverride path[2];

  bool IsDefault() const {
    for (int dir : {kUp, kDown}) {
      if (!loss[dir].IsDefault() || !queue[dir].IsDefault() || !path[dir].IsDefault()) {
        return false;
      }
    }
    return true;
  }
  friend bool operator==(const LinkModel& a, const LinkModel& b) {
    for (int dir : {kUp, kDown}) {
      if (a.loss[dir] != b.loss[dir] || a.queue[dir] != b.queue[dir] ||
          a.path[dir] != b.path[dir]) {
        return false;
      }
    }
    return true;
  }
  friend bool operator!=(const LinkModel& a, const LinkModel& b) { return !(a == b); }
};

}  // namespace quicer::netem
