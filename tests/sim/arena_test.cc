#include "sim/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace quicer::sim {
namespace {

struct Record {
  std::uint64_t a = 0;
  std::uint32_t b = 0;
};

TEST(Arena, CopyPlacesAnIndependentView) {
  Arena arena;
  std::vector<Record> source = {{1, 2}, {3, 4}, {5, 6}};
  const Span<Record> placed = arena.Copy(source.data(), source.size());
  source[1].a = 99;  // the placed copy is not a view of the source
  ASSERT_EQ(placed.size(), 3u);
  EXPECT_NE(placed.data, source.data());
  EXPECT_EQ(placed[1].a, 3u);
  EXPECT_EQ(placed.back().b, 6u);
  EXPECT_TRUE(arena.Copy(source.data(), 0).empty());
}

TEST(Arena, SpanViewsContainersAndAddsConst) {
  std::vector<Record> records = {{7, 8}};
  const Span<Record> view = records;
  const Span<const Record> read_only = view;
  EXPECT_EQ(read_only.data, records.data());
  EXPECT_EQ(read_only.front().a, 7u);
  const std::vector<Record>& const_records = records;
  const Span<const Record> from_const = const_records;
  EXPECT_EQ(from_const.size(), 1u);
}

TEST(Arena, BytesUsedCountsSinceResetAndResetKeepsChunks) {
  Arena arena(1024);
  EXPECT_EQ(arena.BytesUsed(), 0u);
  arena.AllocateUninitialized<std::uint64_t>(16);  // 128 B
  EXPECT_EQ(arena.BytesUsed(), 128u);
  arena.AllocateUninitialized<std::uint64_t>(200);  // 1600 B: a larger chunk
  EXPECT_EQ(arena.chunk_count(), 2u);
  EXPECT_GE(arena.BytesUsed(), 1024u + 1600u);

  const std::size_t reserved = arena.BytesReserved();
  arena.Reset();
  EXPECT_EQ(arena.BytesUsed(), 0u);
  // The same sequence after a reset is served from the retained chunks.
  arena.AllocateUninitialized<std::uint64_t>(16);
  arena.AllocateUninitialized<std::uint64_t>(200);
  EXPECT_EQ(arena.chunk_count(), 2u);
  EXPECT_EQ(arena.BytesReserved(), reserved);
}

#if defined(QUICER_ARENA_ASAN)
TEST(Arena, ResetPoisonsRetainedChunksUnderAddressSanitizer) {
  // A view that outlives its run must be a hard error, not a stale read:
  // Reset poisons every retained chunk, Allocate unpoisons what it hands
  // out.
  Arena arena;
  std::uint64_t* first = arena.AllocateUninitialized<std::uint64_t>(4);
  first[3] = 1;
  EXPECT_FALSE(__asan_address_is_poisoned(first + 3));
  arena.Reset();
  EXPECT_TRUE(__asan_address_is_poisoned(first));
  EXPECT_TRUE(__asan_address_is_poisoned(first + 3));
  std::uint64_t* again = arena.AllocateUninitialized<std::uint64_t>(2);
  EXPECT_EQ(again, first);
  EXPECT_FALSE(__asan_address_is_poisoned(again + 1));
  EXPECT_TRUE(__asan_address_is_poisoned(again + 2));
}
#endif

}  // namespace
}  // namespace quicer::sim
