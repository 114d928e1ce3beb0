// Deterministic datagram loss patterns.
//
// The paper (§3) deliberately avoids stochastic loss: it drops *specific*
// UDP datagrams (by per-direction index) so that root causes can be traced.
// LossPattern reproduces that: indices are 1-based counts of datagrams sent
// in one direction since connection start. Stochastic loss is a netem
// model (netem::LossModel, ExperimentConfig::link), which the link applies
// after these index drops.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <set>
#include <utility>

namespace quicer::sim {

/// Direction of travel across the emulated path.
enum class Direction { kClientToServer = 0, kServerToClient = 1 };

constexpr const char* ToString(Direction d) {
  return d == Direction::kClientToServer ? "client->server" : "server->client";
}

/// Decides which datagrams the path drops.
class LossPattern {
 public:
  /// No loss at all.
  LossPattern() = default;

  /// Drops the datagrams with the given 1-based indices in `direction`.
  LossPattern& DropIndices(Direction direction, std::initializer_list<int> indices);

  /// Same, from any iterable container.
  template <typename Container>
  LossPattern& DropIndexRange(Direction direction, const Container& indices) {
    for (int index : indices) indexed_.emplace(direction, index);
    return *this;
  }

  /// Returns true if the `index`-th datagram (1-based) sent in `direction`
  /// must be dropped.
  bool ShouldDrop(Direction direction, std::uint64_t index) const {
    return indexed_.count({direction, static_cast<int>(index)}) != 0;
  }

  /// True if no drops are configured at all.
  bool empty() const { return indexed_.empty(); }

  /// Number of indexed drops configured for `direction`.
  std::size_t IndexedDropCount(Direction direction) const;

 private:
  std::set<std::pair<Direction, int>> indexed_;
};

}  // namespace quicer::sim
