#ifndef DMM_ALLOC_POOL_H
#define DMM_ALLOC_POOL_H

#include <bit>
#include <cstddef>

#include "dmm/alloc/allocator.h"
#include "dmm/alloc/block_layout.h"
#include "dmm/alloc/chunk.h"
#include "dmm/alloc/config.h"
#include "dmm/alloc/free_index.h"
#include "dmm/alloc/shape.h"

namespace dmm::alloc {

/// The decision vector's leaves as the policy core executes them, hoisted
/// once from the canonical vector: each mechanism's A5 grant is folded
/// into its schedule, so the hot path tests one flag per decision point.
struct PolicyLeaves {
  BlockStructure block_structure;  // A1 (DynamicShape reads it)
  BlockLayout layout;              // A3/A4 (DynamicShape reads it)
  bool class_rounding;             // A2 = fixed classes
  PoolDivision division;           // B1
  bool array_routing;              // B2 = array
  bool dynamic_classes;            // B3 = dynamic
  bool static_many;                // B3 = static many: the class roster
  bool fixed_class_pools;          // class pools hold one block size
  bool big_path;                   // B4 != static: dedicated big chunks
  bool shrink;                     // B4 = grow and shrink
  FitAlgorithm fit;                // C1
  FreeListOrder order;             // C2
  bool split;                      // A5 grants splitting and E2 != never
  bool split_deferred;             // ... and E2 = deferred
  bool split_bounded;              // E1 = bounded by class
  bool coalesce_always;            // A5 grants coalescing and D2 = always
  bool coalesce_deferred;          // A5 grants coalescing and D2 = deferred
  bool coalesce_bounded;           // D1 = bounded by class
  std::size_t min_block;           // smallest viable free block
  std::size_t deferred_split_min;
  std::size_t class_cap;           // 2^max_class_log2
  std::size_t chunk_bytes;
  std::size_t big_request_bytes;
  std::size_t static_pool_bytes;   // B4 = static: the one up-front grant

  [[nodiscard]] static PolicyLeaves from(const DmmConfig& cfg);
};

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
/// PoolBase holds what does not depend on the block shape: the chunk list
/// and the chunk traffic with the arena, which the pool requests and
/// releases itself under its owner's tag.  Block-level lookups (which
/// chunk holds a block) go through the arena's page map; the mechanism
/// counters are the owner's stats.
class PoolBase {
 public:
  PoolBase(const PolicyLeaves& leaves, std::size_t fixed_block_size,
           sysmem::SystemArena& arena, const void* owner,
           AllocatorStats& stats);
  PoolBase(const PoolBase&) = delete;
  PoolBase& operator=(const PoolBase&) = delete;
  /// Hands every chunk back so the arena's leak tripwire stays green.
  virtual ~PoolBase();

  /// Grows the pool by one chunk holding at least @p data_bytes of data
  /// without allocating from it (used for static preallocation).
  /// Returns the chunk, or nullptr if the arena refuses.
  ChunkHeader* grow_reserve(std::size_t data_bytes);

  /// After the static preallocation: the pool may never grow again.
  void stop_growing() { may_grow_ = false; }

  /// The owner's chunk containing @p block (the arena's page map), or
  /// nullptr for a pointer outside the owner's grants.
  [[nodiscard]] ChunkHeader* chunk_of(const void* block) const {
    const sysmem::Grant grant = arena_.grant_of(block);
    if (grant.owner != owner_) return nullptr;
    return reinterpret_cast<ChunkHeader*>(grant.base);
  }

  [[nodiscard]] std::size_t fixed_block_size() const { return fixed_size_; }
  [[nodiscard]] bool is_fixed() const { return fixed_size_ != 0; }
  [[nodiscard]] ChunkHeader* chunks() const { return chunks_; }
  [[nodiscard]] std::size_t chunk_count() const { return chunk_count_; }
  [[nodiscard]] std::size_t live_blocks() const { return live_blocks_; }

 protected:
  /// Bump-carves @p block_size bytes from a chunk's wilderness, growing
  /// the pool when no chunk has room.  nullptr if the arena refuses.
  [[nodiscard]] std::byte* carve(std::size_t block_size) {
    if (carve_chunk_ == nullptr ||
        carve_chunk_->wilderness_bytes() < block_size) {
      carve_chunk_ = nullptr;
      for (ChunkHeader* c = chunks_; c != nullptr; c = c->next) {
        if (c->wilderness_bytes() >= block_size) {
          carve_chunk_ = c;
          break;
        }
      }
    }
    if (carve_chunk_ == nullptr && grow_reserve(block_size) == nullptr) {
      return nullptr;
    }
    std::byte* block = carve_chunk_->wilderness();
    carve_chunk_->bump += block_size;
    return block;
  }

  /// Unlinks the (drained) @p chunk and returns it to the arena.
  void release_chunk(ChunkHeader* chunk);

  const PolicyLeaves leaves_;
  const std::size_t fixed_size_;
  sysmem::SystemArena& arena_;
  const void* const owner_;
  AllocatorStats& stats_;
  ChunkHeader* chunks_ = nullptr;       ///< doubly-linked chunk list
  ChunkHeader* carve_chunk_ = nullptr;  ///< chunk currently bump-carved
  std::size_t chunk_count_ = 0;
  std::size_t live_blocks_ = 0;
  bool may_grow_ = true;
};

template <class Shape>
class Pool : public PoolBase {
 public:
  /// @param leaves  the owner's hoisted decision leaves (copied).
  /// @param fixed_block_size  0 = variable-size pool; otherwise every
  ///        block in the pool has exactly this total size.
  /// @param arena, owner  where the pool's chunks come from and the owner
  ///        tag stamped on them: chunk_of() resolves blocks through the
  ///        arena's page map.
  /// @param stats  the owner's mechanism counters (splits/coalesces/...).
  Pool(const PolicyLeaves& leaves, std::size_t fixed_block_size,
       sysmem::SystemArena& arena, const void* owner, AllocatorStats& stats)
      : PoolBase(leaves, fixed_block_size, arena, owner, stats),
        shape_(leaves.block_structure, leaves.layout),
        index_(shape_, leaves.order, fixed_block_size) {}

  /// Allocates a block of @p block_size total bytes (header included).
  /// For fixed pools @p block_size must equal fixed_block_size().
  /// Returns the block base (not the payload), or nullptr if the pool
  /// cannot grow.
  [[nodiscard, gnu::always_inline]] std::byte* allocate_block(
      std::size_t block_size);

  /// Releases a block back to the pool.  @p chunk must be the chunk that
  /// contains it (the manager resolves it through the arena's page map).
  [[gnu::always_inline]] void free_block(std::byte* block,
                                         std::size_t block_size,
                                         ChunkHeader* chunk);

  /// Deferred-coalescing sweep over all chunks: merges every run of
  /// adjacent free blocks and retreats wilderness over trailing runs.
  /// Returns the number of merges performed.
  std::size_t coalesce_sweep();

  /// Size of the block starting at @p block, via header or fixed size.
  [[nodiscard]] std::size_t block_size_of(const std::byte* block) const {
    if (fixed_size_ != 0) return fixed_size_;
    const std::size_t sz = layout().read_size(block);
    if (sz == 0) {
      detail::fatal("Pool",
                    "variable-size pool without size information in blocks");
    }
    return sz;
  }

  [[nodiscard]] FreeIndex<Shape>& index() { return index_; }
  [[nodiscard]] const FreeIndex<Shape>& index() const { return index_; }

  /// Walks every carved block of @p chunk in address order, calling
  /// fn(block, size, is_free).
  template <class Fn>
  void walk_chunk(ChunkHeader* chunk, Fn&& fn) const;

  /// Consistency tripwire used by tests: verifies that carved blocks tile
  /// each chunk exactly and that free bookkeeping matches the index.
  void check_integrity() const;

 private:
  [[nodiscard]] const BlockLayout& layout() const { return shape_.layout(); }
  /// Splits @p block (size @p have) for a @p need -byte allocation; the
  /// remainder becomes a free block.  Returns the allocated part's size.
  [[gnu::always_inline]] std::size_t split_block(std::byte* block,
                                                 std::size_t have,
                                                 std::size_t need,
                                                 ChunkHeader* chunk);
  [[nodiscard, gnu::always_inline]] std::size_t try_coalesce(
      std::byte*& block, std::size_t size, ChunkHeader* chunk);
  [[gnu::always_inline]] void make_free(std::byte* block, std::size_t size,
                                        ChunkHeader* chunk);
  [[gnu::always_inline]] void mark_allocated(std::byte* block,
                                             std::size_t size,
                                             ChunkHeader* chunk);
  void release_chunk_if_empty(ChunkHeader* chunk);
  void set_prev_free_of_next(std::byte* block, std::size_t size,
                             ChunkHeader* chunk, bool prev_free) {
    std::byte* next = block + size;
    if (next < chunk->wilderness()) layout().set_prev_free(next, prev_free);
  }
  [[nodiscard]] bool split_allowed(std::size_t have, std::size_t need) const {
    // Fixed pools never split (sizes invariant).  Deferred splitting only
    // bothers for remainders large enough to matter (the pressure
    // threshold fixed "via simulation", Sec. 5).
    if (is_fixed() || !leaves_.split) return false;
    return have - need >= (leaves_.split_deferred ? leaves_.deferred_split_min
                                                  : leaves_.min_block);
  }
  /// D1 bounded: only class-valid merged sizes up to the ceiling.
  [[nodiscard]] bool merge_allowed(std::size_t merged) const {
    return !leaves_.coalesce_bounded ||
           (std::has_single_bit(merged) && merged <= leaves_.class_cap);
  }

  [[no_unique_address]] Shape shape_;
  FreeIndex<Shape> index_;
};

// ---------------------------------------------------------------------------
// allocation and free
// ---------------------------------------------------------------------------

template <class Shape>
inline std::byte* Pool<Shape>::allocate_block(std::size_t block_size) {
  if (fixed_size_ != 0 && block_size != fixed_size_) {
    detail::fatal("Pool", "fixed-size pool asked for a foreign block size");
  }
  std::byte* block = index_.take_fit(block_size, leaves_.fit);
  // Coalescing decision point (alloc side): a failed fit over a non-empty
  // variable index is where a deferred-coalescing config would defragment
  // — only when the request would otherwise force the pool to grow.
  if (block == nullptr && !is_fixed() && index_.count() > 0 &&
      leaves_.coalesce_deferred && coalesce_sweep() > 0) {
    block = index_.take_fit(block_size, leaves_.fit);
  }
  std::size_t final_size = block_size;
  ChunkHeader* chunk = nullptr;
  if (block != nullptr) {
    chunk = chunk_of(block);
    const std::size_t have = block_size_of(block);
    final_size = have;
    // Splitting decision point: a reused block larger than the request is
    // where the E-knobs (and A5) choose whether to carve a remainder.
    if (have > block_size && split_allowed(have, block_size)) {
      final_size = split_block(block, have, block_size, chunk);
    }
  } else {
    block = carve(block_size);
    if (block == nullptr) return nullptr;
    chunk = carve_chunk_;
  }
  mark_allocated(block, final_size, chunk);
  return block;
}

template <class Shape>
inline std::size_t Pool<Shape>::split_block(std::byte* block,
                                            std::size_t have,
                                            std::size_t need,
                                            ChunkHeader* chunk) {
  const std::size_t remainder = have - need;
  std::size_t rem_size = remainder;
  if (leaves_.split_bounded) {
    // E1 bounded: the produced block must be one of the fixed class sizes;
    // round the remainder down and leave the gap glued to the allocated
    // part (internal fragmentation — the cost of bounding E1).
    rem_size = std::bit_floor(remainder);
    if (rem_size > leaves_.class_cap) rem_size = leaves_.class_cap;
  }
  if (rem_size < leaves_.min_block) return have;
  if (leaves_.split_bounded &&
      !(std::has_single_bit(rem_size) && rem_size <= leaves_.class_cap)) {
    return have;
  }
  std::byte* rem_block = block + (have - rem_size);
  make_free(rem_block, rem_size, chunk);
  ++stats_.splits;
  return have - rem_size;  // size the allocated part keeps
}

template <class Shape>
inline void Pool<Shape>::free_block(std::byte* block, std::size_t block_size,
                                    ChunkHeader* chunk) {
  if (chunk == nullptr || chunk->owner != this) {
    detail::fatal("Pool", "free_block: chunk does not belong to this pool");
  }
  // Coalescing decision point (free side): only a block with a free
  // neighbour or the wilderness next to it can merge.
  bool merge_possible = false;
  if (!is_fixed()) {
    std::byte* next = block + block_size;
    merge_possible = next == chunk->wilderness();
    if (!merge_possible && next < chunk->wilderness() &&
        layout().records_status() && layout().read_free(next)) {
      merge_possible = true;
    }
    if (!merge_possible && layout().has_footer() &&
        layout().read_prev_free(block)) {
      merge_possible = true;
    }
  }
  --live_blocks_;
  --chunk->live_blocks;
  std::size_t size = block_size;
  if (merge_possible && leaves_.coalesce_always) {
    size = try_coalesce(block, size, chunk);
  }
  make_free(block, size, chunk);
  release_chunk_if_empty(chunk);
}

template <class Shape>
inline std::size_t Pool<Shape>::try_coalesce(std::byte*& block,
                                             std::size_t size,
                                             ChunkHeader* chunk) {
  // Forward: absorb the successor while it is free.
  for (;;) {
    std::byte* next = block + size;
    if (next >= chunk->wilderness()) break;
    if (!layout().read_free(next)) break;
    const std::size_t nsz = block_size_of(next);
    if (!merge_allowed(size + nsz)) break;
    index_.remove(next);
    size += nsz;
    ++stats_.coalesces;
  }
  // Backward: follow the boundary footer while the predecessor is free.
  if (layout().has_footer()) {
    while (layout().read_prev_free(block)) {
      const std::size_t psz = layout().read_footer_size(block);
      if (psz == 0 || block - psz < chunk->data()) break;
      std::byte* prev = block - psz;
      if (!merge_allowed(size + psz)) break;
      index_.remove(prev);
      // Inherit the predecessor's own prev-free bit for the loop test.
      const bool prev_prev_free = layout().read_prev_free(prev);
      block = prev;
      size += psz;
      ++stats_.coalesces;
      if (!prev_prev_free) break;
    }
  }
  return size;
}

template <class Shape>
inline void Pool<Shape>::make_free(std::byte* block, std::size_t size,
                                   ChunkHeader* chunk) {
  // Immediate-coalescing configs retreat the wilderness here instead of
  // threading a trailing free block (also reached from split_block's
  // remainder) — this is what lets an adaptive pool ever become empty.
  if (!is_fixed() && block + size == chunk->wilderness() &&
      leaves_.coalesce_always) {
    chunk->bump -= size;
    ++stats_.coalesces;
    return;
  }
  layout().write_header(block, size, /*free=*/true, /*prev_free=*/false);
  layout().write_footer(block, size);
  set_prev_free_of_next(block, size, chunk, true);
  index_.insert(block);
}

template <class Shape>
inline void Pool<Shape>::mark_allocated(std::byte* block, std::size_t size,
                                        ChunkHeader* chunk) {
  // Clears the block's own prev-free bit too, whatever its predecessor.
  layout().write_header(block, size, /*free=*/false, /*prev_free=*/false);
  set_prev_free_of_next(block, size, chunk, false);
  ++live_blocks_;
  ++chunk->live_blocks;
}

template <class Shape>
void Pool<Shape>::release_chunk_if_empty(ChunkHeader* chunk) {
  // Shrink decision point: an empty chunk is where the B4 adaptivity knob
  // decides between returning memory and keeping it cached.
  if (chunk->live_blocks != 0 || !leaves_.shrink) return;
  // Drain the chunk's free blocks from the index, then hand it back.
  walk_chunk(chunk, [&](std::byte* b, std::size_t, bool) {
    index_.remove(b);
  });
  release_chunk(chunk);
}

// ---------------------------------------------------------------------------
// sweeps and walks
// ---------------------------------------------------------------------------

template <class Shape>
template <class Fn>
void Pool<Shape>::walk_chunk(ChunkHeader* chunk, Fn&& fn) const {
  std::byte* pos = chunk->data();
  std::byte* end = chunk->wilderness();
  while (pos < end) {
    const std::size_t sz = block_size_of(pos);
    if (sz == 0 || pos + sz > end) {
      detail::fatal("Pool", "walk_chunk: corrupt block grid");
    }
    fn(pos, sz, layout().read_free(pos));
    pos += sz;
  }
}

template <class Shape>
std::size_t Pool<Shape>::coalesce_sweep() {
  std::size_t merges = 0;
  for (ChunkHeader* chunk = chunks_; chunk != nullptr; chunk = chunk->next) {
    std::byte* pos = chunk->data();
    std::byte* run_start = nullptr;
    std::size_t run_size = 0;
    std::size_t run_blocks = 0;
    bool prev_free = false;

    auto flush_run = [&](bool into_wilderness) {
      if (run_start == nullptr) return;
      if (into_wilderness) {
        chunk->bump -= run_size;
        merges += run_blocks;  // blocks absorbed by the wilderness
      } else if (run_blocks > 1 && merge_allowed(run_size)) {
        layout().write_header(run_start, run_size, true, false);
        layout().write_footer(run_start, run_size);
        index_.insert(run_start);
        merges += run_blocks - 1;
      } else {
        // Re-thread the run unmerged (single block, or D1 forbids).
        std::byte* p = run_start;
        std::size_t left = run_size;
        while (left > 0) {
          const std::size_t sz = block_size_of(p);
          index_.insert(p);
          p += sz;
          left -= sz;
        }
      }
      run_start = nullptr;
      run_size = 0;
      run_blocks = 0;
    };

    while (pos < chunk->wilderness()) {
      const std::size_t sz = block_size_of(pos);
      const bool is_free = layout().read_free(pos);
      if (is_free) {
        index_.remove(pos);
        if (run_start == nullptr) run_start = pos;
        run_size += sz;
        ++run_blocks;
        prev_free = true;
      } else {
        flush_run(false);
        layout().set_prev_free(pos, prev_free);
        prev_free = false;
      }
      pos += sz;
      // flush_run(false) may have re-threaded blocks; pos is unaffected.
      if (is_free && pos == chunk->wilderness()) {
        flush_run(/*into_wilderness=*/true);
      }
    }
    flush_run(false);
  }
  stats_.coalesces += merges;
  return merges;
}

template <class Shape>
void Pool<Shape>::check_integrity() const {
  const bool status = layout().records_status();
  std::size_t free_blocks_walked = 0;
  std::size_t free_bytes_walked = 0;
  std::size_t live_walked = 0;
  for (ChunkHeader* chunk = chunks_; chunk != nullptr; chunk = chunk->next) {
    if (chunk->owner != this) {
      detail::fatal("Pool", "integrity: chunk owner mismatch");
    }
    std::size_t live_in_chunk = 0;
    walk_chunk(chunk, [&](std::byte* b, std::size_t sz, bool is_free) {
      if (!status) return;
      if (is_free) {
        ++free_blocks_walked;
        free_bytes_walked += sz;
        if (!index_.contains(b)) {
          detail::fatal("Pool", "integrity: free block not indexed");
        }
      } else {
        ++live_in_chunk;
      }
    });
    if (status && live_in_chunk != chunk->live_blocks) {
      detail::fatal("Pool", "integrity: chunk live_blocks mismatch");
    }
    live_walked += live_in_chunk;
  }
  if (!status) return;
  if (free_blocks_walked != index_.count()) {
    detail::fatal("Pool", "integrity: index count mismatch");
  }
  if (free_bytes_walked != index_.bytes()) {
    detail::fatal("Pool", "integrity: index bytes mismatch");
  }
  if (live_walked != live_blocks_) {
    detail::fatal("Pool", "integrity: pool live mismatch");
  }
}

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_POOL_H
