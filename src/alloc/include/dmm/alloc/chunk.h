#ifndef DMM_ALLOC_CHUNK_H
#define DMM_ALLOC_CHUNK_H

#include <cstddef>
#include <map>

namespace dmm::alloc {

class Pool;

/// In-band header at the start of every chunk a manager obtains from the
/// SystemArena.  Blocks are carved from the *data area* behind the header;
/// the not-yet-carved tail is the chunk's "wilderness":
///
///   [ChunkHeader | carved blocks ........ | wilderness ............ ]
///   base          data()                   base+bump                end()
///
/// The header is part of the chunk, so pool bookkeeping is charged to the
/// footprint exactly like the paper's "organization overhead".
struct alignas(16) ChunkHeader {
  std::size_t chunk_size = 0;   ///< total bytes including this header
  std::size_t bump = 0;         ///< offset of the wilderness start
  std::size_t live_blocks = 0;  ///< allocated (not freed) blocks inside
  Pool* owner = nullptr;        ///< owning pool; nullptr = dedicated chunk
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
  /// True iff @p p points inside this chunk's data area.
  [[nodiscard]] bool contains(const void* p) const {
    auto* q = static_cast<const std::byte*>(p);
    return q >= data() && q < end();
  }

  void init(std::size_t total_size, Pool* pool) {
    chunk_size = total_size;
    bump = sizeof(ChunkHeader);
    live_blocks = 0;
    owner = pool;
    next = prev = nullptr;
  }
};

static_assert(sizeof(ChunkHeader) % 16 == 0,
              "chunk header must preserve block alignment");

/// Address index over live chunks: pointer -> owning chunk.
///
/// A production allocator derives the chunk base by address masking
/// (chunks are naturally aligned); the simulated arena hands out
/// malloc-aligned chunks instead, so this host-side map stands in for that
/// masking.  It is bookkeeping the real system gets for free and is
/// therefore not charged to the footprint (see DESIGN.md).
class ChunkIndex {
 public:
  void add(ChunkHeader* chunk) { by_base_[chunk->base()] = chunk; }

  void remove(ChunkHeader* chunk) {
    if (last_ == chunk) last_ = nullptr;
    by_base_.erase(chunk->base());
  }

  /// Chunk whose [base, end) range contains @p p, or nullptr.
  [[nodiscard]] ChunkHeader* find(const void* p) const {
    // One-entry cache: allocator traffic is strongly chunk-local.
    auto* q = static_cast<const std::byte*>(p);
    if (last_ != nullptr && q >= last_->base() && q < last_->end()) {
      return last_;
    }
    auto it = by_base_.upper_bound(q);
    if (it == by_base_.begin()) return nullptr;
    --it;
    ChunkHeader* c = it->second;
    if (q >= c->end()) return nullptr;
    last_ = c;
    return c;
  }

  [[nodiscard]] std::size_t size() const { return by_base_.size(); }

 private:
  // dmm-lint: allow(ptr-order): addresses are slab-relative, so the order is deterministic
  std::map<const std::byte*, ChunkHeader*> by_base_;
  mutable ChunkHeader* last_ = nullptr;
};

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_CHUNK_H
