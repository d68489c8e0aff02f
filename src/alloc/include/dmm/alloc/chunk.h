#ifndef DMM_ALLOC_CHUNK_H
#define DMM_ALLOC_CHUNK_H

#include <cstddef>

namespace dmm::alloc {

class PoolBase;

/// In-band header at the start of every chunk a manager obtains from the
/// SystemArena.  Blocks are carved from the *data area* behind the header;
/// the not-yet-carved tail is the chunk's "wilderness":
///
///   [ChunkHeader | carved blocks ........ | wilderness ............ ]
///   base          data()                   base+bump                end()
///
/// The header is part of the chunk, so pool bookkeeping is charged to the
/// footprint exactly like the paper's "organization overhead".  A pointer
/// is resolved to its chunk (and the chunk to its manager) by the arena's
/// page map, SystemArena::grant_of: the header names its pool, not its
/// manager, so it stays 48 bytes.
struct alignas(16) ChunkHeader {
  std::size_t chunk_size = 0;   ///< total bytes including this header
  std::size_t bump = 0;         ///< offset of the wilderness start
  std::size_t live_blocks = 0;  ///< allocated (not freed) blocks inside
  PoolBase* owner = nullptr;    ///< owning pool; nullptr = dedicated chunk
  ChunkHeader* next = nullptr;  ///< pool's chunk list
  ChunkHeader* prev = nullptr;

  [[nodiscard]] std::byte* base() { return reinterpret_cast<std::byte*>(this); }
  [[nodiscard]] const std::byte* base() const {
    return reinterpret_cast<const std::byte*>(this);
  }
  [[nodiscard]] std::byte* data() { return base() + sizeof(ChunkHeader); }
  [[nodiscard]] const std::byte* data() const {
    return base() + sizeof(ChunkHeader);
  }
  [[nodiscard]] std::byte* end() { return base() + chunk_size; }
  [[nodiscard]] const std::byte* end() const { return base() + chunk_size; }
  [[nodiscard]] std::byte* wilderness() { return base() + bump; }
  [[nodiscard]] std::size_t wilderness_bytes() const {
    return chunk_size - bump;
  }
  [[nodiscard]] std::size_t data_bytes() const {
    return chunk_size - sizeof(ChunkHeader);
  }

  void init(std::size_t total_size, PoolBase* pool) {
    chunk_size = total_size;
    bump = sizeof(ChunkHeader);
    live_blocks = 0;
    owner = pool;
    next = prev = nullptr;
  }
};

static_assert(sizeof(ChunkHeader) % 16 == 0,
              "chunk header must preserve block alignment");

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_CHUNK_H
