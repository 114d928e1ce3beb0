#include "sim/loss.h"

#include <gtest/gtest.h>

namespace quicer::sim {
namespace {

TEST(LossPattern, DefaultDropsNothing) {
  LossPattern pattern;
  EXPECT_TRUE(pattern.empty());
  for (std::uint64_t i = 1; i <= 100; ++i) {
    EXPECT_FALSE(pattern.ShouldDrop(Direction::kClientToServer, i));
    EXPECT_FALSE(pattern.ShouldDrop(Direction::kServerToClient, i));
  }
}

TEST(LossPattern, DropsConfiguredIndicesOnly) {
  LossPattern pattern;
  pattern.DropIndices(Direction::kServerToClient, {2, 3});
  EXPECT_FALSE(pattern.ShouldDrop(Direction::kServerToClient, 1));
  EXPECT_TRUE(pattern.ShouldDrop(Direction::kServerToClient, 2));
  EXPECT_TRUE(pattern.ShouldDrop(Direction::kServerToClient, 3));
  EXPECT_FALSE(pattern.ShouldDrop(Direction::kServerToClient, 4));
}

TEST(LossPattern, DirectionsAreIndependent) {
  LossPattern pattern;
  pattern.DropIndices(Direction::kClientToServer, {2});
  EXPECT_TRUE(pattern.ShouldDrop(Direction::kClientToServer, 2));
  EXPECT_FALSE(pattern.ShouldDrop(Direction::kServerToClient, 2));
}

TEST(LossPattern, DropIndexRangeFromContainer) {
  LossPattern pattern;
  std::vector<int> indices{4, 5, 6};
  pattern.DropIndexRange(Direction::kClientToServer, indices);
  for (int i : indices) {
    EXPECT_TRUE(pattern.ShouldDrop(Direction::kClientToServer, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(pattern.IndexedDropCount(Direction::kClientToServer), 3u);
  EXPECT_EQ(pattern.IndexedDropCount(Direction::kServerToClient), 0u);
}

}  // namespace
}  // namespace quicer::sim
