#include "sim/arena.h"

namespace quicer::sim {

void* Arena::AllocateSlow(std::size_t bytes, std::size_t alignment) {
  // Advance into retained chunks first — after a Reset the later chunks are
  // all empty and simply waiting to be reused.
  while (chunk_index_ + 1 < chunks_.size()) {
    ++chunk_index_;
    cursor_ = chunks_[chunk_index_].data.get();
    limit_ = cursor_ + chunks_[chunk_index_].size;
    unsigned char* aligned = AlignUp(cursor_, alignment);
    if (aligned + bytes <= limit_) {
      cursor_ = aligned + bytes;
      Unpoison(aligned, bytes);
      return aligned;
    }
  }
  const std::size_t want = bytes + alignment;
  const std::size_t size = want > min_chunk_bytes_ ? want : min_chunk_bytes_;
  chunks_.push_back(Chunk{std::make_unique<unsigned char[]>(size), size});
  chunk_index_ = chunks_.size() - 1;
  cursor_ = chunks_.back().data.get();
  limit_ = cursor_ + size;
  Poison(cursor_, size);
  unsigned char* aligned = AlignUp(cursor_, alignment);
  cursor_ = aligned + bytes;
  Unpoison(aligned, bytes);
  return aligned;
}

}  // namespace quicer::sim
