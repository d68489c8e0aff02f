#ifndef DMM_ALLOC_POOL_H
#define DMM_ALLOC_POOL_H

#include <cstddef>
#include <functional>

#include "dmm/alloc/allocator.h"
#include "dmm/alloc/block_layout.h"
#include "dmm/alloc/chunk.h"
#include "dmm/alloc/config.h"
#include "dmm/alloc/free_index.h"

namespace dmm::alloc {

/// One memory pool (the paper's "memory region"): a set of chunks plus a
/// free structure, executing the block-level mechanisms of the decision
/// vector — carving, fit (C1/C2 via FreeIndex), splitting (E1/E2) and
/// coalescing (D1/D2) — within its chunks.
///
/// Pools are *fixed-size* (every block has the same total size; size and
/// status can then be inferred from pool membership alone — the escape
/// hatch the Fig. 3 interdependency needs when A3 = none) or
/// *variable-size* (sizes read from block headers; requires A4 size info).
///
/// Growth/shrink traffic with the arena goes through the owner-provided
/// hooks so the manager can tag its grants; block-level lookups (which
/// chunk holds a block) and the mechanism counters are resolved by the
/// pool itself, through the arena's page map and the owner's stats.
/// The chunk traffic a Pool asks of its owning manager: growth and release
/// only, both rare next to block operations.
class PoolHost {
 public:
  virtual ~PoolHost() = default;
  /// Obtains a fresh chunk whose data area holds >= min_data_bytes.
  virtual ChunkHeader* pool_grow(std::size_t min_data_bytes) = 0;
  /// Returns an empty chunk to the arena.
  virtual void pool_release(ChunkHeader* chunk) = 0;
};

class Pool {
 public:
  /// @param cfg  decision vector the pool executes; read in place, so it
  ///        must outlive the pool.
  /// @param fixed_block_size  0 = variable-size pool; otherwise every
  ///        block in the pool has exactly this total size.
  /// @param arena, owner  where the host's chunks come from and the owner
  ///        tag it stamps on them: chunk_of() resolves blocks through the
  ///        arena's page map.
  /// @param stats  the owner's mechanism counters (splits/coalesces/...).
  Pool(const DmmConfig& cfg, const BlockLayout& layout,
       std::size_t fixed_block_size, PoolHost& host,
       const sysmem::SystemArena& arena, const void* owner,
       AllocatorStats& stats);

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool();

  /// Allocates a block of @p block_size total bytes (header included).
  /// For fixed pools @p block_size must equal fixed_block_size().
  /// Returns the block base (not the payload), or nullptr if the pool
  /// cannot grow.
  [[nodiscard]] std::byte* allocate_block(std::size_t block_size);

  /// Releases a block back to the pool.  @p chunk must be the chunk that
  /// contains it (the manager resolves it through the arena's page map).
  void free_block(std::byte* block, std::size_t block_size,
                  ChunkHeader* chunk);

  /// Deferred-coalescing sweep over all chunks: merges every run of
  /// adjacent free blocks and retreats wilderness over trailing runs.
  /// Returns the number of merges performed.
  std::size_t coalesce_sweep();

  /// Grows the pool by one chunk holding at least @p data_bytes of data
  /// without allocating from it (used for static preallocation).
  /// Returns the chunk, or nullptr if the arena refuses.
  ChunkHeader* grow_reserve(std::size_t data_bytes);

  /// The owner's chunk containing @p block (the arena's page map), or
  /// nullptr for a pointer outside the owner's grants.
  [[nodiscard]] ChunkHeader* chunk_of(const void* block) const {
    const sysmem::Grant grant = arena_.grant_of(block);
    if (grant.owner != owner_) return nullptr;
    return reinterpret_cast<ChunkHeader*>(grant.base);
  }

  /// Size of the block starting at @p block, via header or fixed size.
  [[nodiscard]] std::size_t block_size_of(const std::byte* block) const;

  [[nodiscard]] std::size_t fixed_block_size() const { return fixed_size_; }
  [[nodiscard]] bool is_fixed() const { return fixed_size_ != 0; }
  [[nodiscard]] FreeIndex& index() { return index_; }
  [[nodiscard]] const FreeIndex& index() const { return index_; }
  [[nodiscard]] ChunkHeader* chunks() const { return chunks_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunk_count_; }
  [[nodiscard]] std::size_t live_blocks() const { return live_blocks_; }

  /// Walks every carved block of @p chunk in address order.
  void walk_chunk(ChunkHeader* chunk,
                  const std::function<void(std::byte*, std::size_t, bool)>&
                      fn) const;  // (block, size, is_free)

  /// Consistency tripwire used by tests: verifies that carved blocks tile
  /// each chunk exactly and that free bookkeeping matches the index.
  void check_integrity() const;

 private:
  [[nodiscard]] std::byte* carve(std::size_t block_size);
  /// Splits @p block (size @p have) for a @p need -byte allocation; the
  /// remainder becomes a free block.  Returns the allocated part's size.
  std::size_t split_block(std::byte* block, std::size_t have,
                          std::size_t need, ChunkHeader* chunk);
  [[nodiscard]] std::size_t try_coalesce(std::byte*& block, std::size_t size,
                                         ChunkHeader* chunk);
  void make_free(std::byte* block, std::size_t size, ChunkHeader* chunk);
  void mark_allocated(std::byte* block, std::size_t size, ChunkHeader* chunk);
  void release_chunk_if_empty(ChunkHeader* chunk);
  void set_prev_free_of_next(std::byte* block, std::size_t size,
                             ChunkHeader* chunk, bool prev_free);
  [[nodiscard]] bool split_allowed(std::size_t have, std::size_t need) const;
  [[nodiscard]] bool remainder_ok(std::size_t remainder) const;

  /// Whether tree A5 grants the splitting / coalescing mechanism.
  [[nodiscard]] bool splitting_granted() const;
  [[nodiscard]] bool coalescing_granted() const;

  const DmmConfig& cfg_;  ///< the owning manager's decision vector
  BlockLayout layout_;
  std::size_t fixed_size_;
  std::size_t min_block_;
  PoolHost& host_;
  const sysmem::SystemArena& arena_;
  const void* owner_;
  AllocatorStats& stats_;
  FreeIndex index_;
  ChunkHeader* chunks_ = nullptr;   ///< doubly-linked chunk list
  ChunkHeader* carve_chunk_ = nullptr;  ///< chunk currently bump-carved
  std::size_t chunk_count_ = 0;
  std::size_t live_blocks_ = 0;
};

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_POOL_H
