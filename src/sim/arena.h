// Per-repetition bump arena and the views into it.
//
// Everything the packet engine sends during one simulated repetition lives
// here: every datagram's packet list, every packet's frame list, every ACK
// frame's range list, and the copy of a sent packet's retransmittable frames
// the sent-packet ledger keeps. A bump allocator fits exactly: allocation is
// a pointer increment, nothing is freed individually, and Reset() rewinds
// the whole arena between repetitions while keeping every chunk, so steady
// state after the first repetition allocates nothing.
//
// Rules:
//  * Only trivially-copyable, trivially-destructible objects are placed
//    (Copy() enforces it at compile time). Nothing is ever destroyed — only
//    memory is reclaimed — and the objects that point into the arena are
//    Span views, which are trivially copyable themselves: a datagram moves
//    through the link, an event closure or a put-back queue as a plain copy,
//    with nothing to release.
//  * One lifetime for all of it: everything lives until the owner
//    (core::RunContext) resets the arena for the next repetition. Reset()
//    invalidates every pointer handed out since the previous Reset(); the
//    owner resets the event queue first and the endpoints right after, so
//    no view survives into the next repetition.
//  * Under AddressSanitizer, Reset() poisons the retained chunks and
//    Allocate() unpoisons exactly what it hands out, so reading a view that
//    outlived its repetition is a hard error instead of a silent stale read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define QUICER_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QUICER_ARENA_ASAN 1
#endif
#endif
#if defined(QUICER_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace quicer::sim {

/// Non-owning (pointer, count) view of contiguous objects — arena-placed
/// wire objects, or a caller's array/vector. Trivially copyable; copying a
/// view never copies the elements.
template <typename T>
struct Span {
  T* data = nullptr;
  std::uint32_t count = 0;

  constexpr Span() = default;
  constexpr Span(T* first, std::size_t n) : data(first), count(static_cast<std::uint32_t>(n)) {}
  /// Views a contiguous container (std::vector, std::array) in place.
  template <typename Container,
            typename = std::enable_if_t<std::is_convertible_v<
                decltype(std::declval<Container&>().data()), T*>>>
  constexpr Span(Container& container)  // NOLINT(google-explicit-constructor)
      : Span(container.data(), container.size()) {}
  /// Span<T> -> Span<const T>.
  template <typename U, typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  constexpr Span(Span<U> other)  // NOLINT(google-explicit-constructor)
      : data(other.data), count(other.count) {}

  T* begin() const { return data; }
  T* end() const { return data + count; }
  std::uint32_t size() const { return count; }
  bool empty() const { return count == 0; }
  T& operator[](std::size_t i) const { return data[i]; }
  T& front() const { return data[0]; }
  T& back() const { return data[count - 1]; }
};

/// Chunked bump allocator; Reset() reuses chunk storage.
class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t min_chunk_bytes = kDefaultChunkBytes)
      : min_chunk_bytes_(min_chunk_bytes) {}
  ~Arena() {
    for (const Chunk& chunk : chunks_) Unpoison(chunk.data.get(), chunk.size);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (which must not
  /// exceed alignof(std::max_align_t)). Never fails short of OOM.
  void* Allocate(std::size_t bytes, std::size_t alignment) {
    unsigned char* aligned = AlignUp(cursor_, alignment);
    if (aligned + bytes <= limit_) {
      cursor_ = aligned + bytes;
      Unpoison(aligned, bytes);
      return aligned;
    }
    return AllocateSlow(bytes, alignment);
  }

  /// Typed convenience: uninitialized storage for `n` objects of T. The
  /// caller placement-constructs; nothing is ever destroyed (see rules).
  template <typename T>
  T* AllocateUninitialized(std::size_t n) {
    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "Arena chunks are max_align_t aligned");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Places a copy of `n` objects starting at `first` in the arena and
  /// returns the view of the copy. The view's extent is fixed: it never
  /// grows in place.
  template <typename T>
  Span<T> Copy(const T* first, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                  "only trivially-copyable, trivially-destructible objects live in the arena");
    if (n == 0) return {};
    T* placed = AllocateUninitialized<T>(n);
    std::memcpy(static_cast<void*>(placed), first, n * sizeof(T));
    return {placed, n};
  }

  /// Rewinds the arena to empty, keeping all chunks for reuse. Every pointer
  /// previously returned by Allocate is invalidated (and, under
  /// AddressSanitizer, poisoned until handed out again).
  void Reset() {
    chunk_index_ = 0;
    for (const Chunk& chunk : chunks_) Poison(chunk.data.get(), chunk.size);
    if (!chunks_.empty()) {
      cursor_ = chunks_.front().data.get();
      limit_ = cursor_ + chunks_.front().size;
    }
  }

  /// Total chunk capacity held (reserved, not live) — for tests/diagnostics.
  std::size_t BytesReserved() const {
    std::size_t total = 0;
    for (const Chunk& chunk : chunks_) total += chunk.size;
    return total;
  }

  /// Bytes consumed since the last Reset(), counting alignment padding and
  /// the unused tails of chunks the cursor moved past.
  std::size_t BytesUsed() const {
    if (chunks_.empty()) return 0;
    std::size_t total = 0;
    for (std::size_t i = 0; i < chunk_index_; ++i) total += chunks_[i].size;
    return total + static_cast<std::size_t>(cursor_ - chunks_[chunk_index_].data.get());
  }

  /// Chunks ever allocated. An allocation that leaves it unchanged was
  /// served from storage the arena already held.
  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    std::size_t size = 0;
  };

  static unsigned char* AlignUp(unsigned char* p, std::size_t alignment) {
    const std::uintptr_t value = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t aligned = (value + alignment - 1) & ~(alignment - 1);
    return p + (aligned - value);
  }

#if defined(QUICER_ARENA_ASAN)
  static void Poison(const void* p, std::size_t bytes) { ASAN_POISON_MEMORY_REGION(p, bytes); }
  static void Unpoison(const void* p, std::size_t bytes) { ASAN_UNPOISON_MEMORY_REGION(p, bytes); }
#else
  static void Poison(const void*, std::size_t) {}
  static void Unpoison(const void*, std::size_t) {}
#endif

  /// Out-of-line growth: advance into the next retained chunk, or append a
  /// fresh one big enough for the request.
  void* AllocateSlow(std::size_t bytes, std::size_t alignment);

  std::vector<Chunk> chunks_;
  /// Index of the chunk cursor_/limit_ point into (chunks_.size() when none).
  std::size_t chunk_index_ = 0;
  unsigned char* cursor_ = nullptr;
  unsigned char* limit_ = nullptr;
  std::size_t min_chunk_bytes_;
};

}  // namespace quicer::sim
