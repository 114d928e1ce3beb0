#include "sim/loss.h"

namespace quicer::sim {

LossPattern& LossPattern::DropIndices(Direction direction, std::initializer_list<int> indices) {
  for (int index : indices) indexed_.emplace(direction, index);
  return *this;
}

std::size_t LossPattern::IndexedDropCount(Direction direction) const {
  std::size_t n = 0;
  for (const auto& [dir, index] : indexed_) {
    if (dir == direction) ++n;
  }
  return n;
}

}  // namespace quicer::sim
