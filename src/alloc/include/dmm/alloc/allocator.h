#ifndef DMM_ALLOC_ALLOCATOR_H
#define DMM_ALLOC_ALLOCATOR_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "dmm/alloc/chunk.h"
#include "dmm/sysmem/system_arena.h"

namespace dmm::alloc {

/// Operation counters and live-data accounting common to every manager.
///
/// `live_bytes` counts *payload* bytes the application currently holds, so
///   fragmentation+overhead = arena.footprint() - live_bytes
/// splits exactly into the paper's two footprint factors (organization
/// overhead and fragmentation waste).
struct AllocatorStats {
  std::uint64_t alloc_count = 0;
  std::uint64_t free_count = 0;
  std::uint64_t failed_allocs = 0;
  std::size_t live_bytes = 0;    ///< payload bytes currently allocated
  std::size_t live_blocks = 0;   ///< blocks currently allocated
  std::size_t peak_live_bytes = 0;
  // Mechanism counters (exposed for the ablation benches).
  std::uint64_t splits = 0;
  std::uint64_t coalesces = 0;
  std::uint64_t chunks_grown = 0;
  std::uint64_t chunks_released = 0;
};

/// Abstract dynamic-memory manager.
///
/// Mirrors the C `malloc`/`free` contract the paper's applications use:
/// `deallocate` takes only the pointer; every manager must recover the
/// block size from its own metadata (tags, pool membership, ...).
///
/// All storage is drawn from the `SystemArena` passed at construction, so
/// `arena().peak_footprint()` is the paper's "maximum memory footprint"
/// for whatever ran on this manager.
class Allocator {
 public:
  explicit Allocator(sysmem::SystemArena& arena) : arena_(&arena) {}
  virtual ~Allocator() = default;

  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

  /// Allocates @p bytes of payload.  Returns nullptr on exhaustion (arena
  /// budget) — embedded code paths must be able to observe failure.
  [[nodiscard]] virtual void* allocate(std::size_t bytes) = 0;

  /// Releases a pointer previously returned by allocate().
  virtual void deallocate(void* ptr) = 0;

  /// Payload size reserved for @p ptr (>= requested size).  Used by tests
  /// to quantify internal fragmentation.
  [[nodiscard]] virtual std::size_t usable_size(const void* ptr) const = 0;

  /// Human-readable manager name as it appears in Table 1.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Logical-phase hint (Sec. 3.3): phase-aware managers (GlobalManager)
  /// switch their active atomic manager here; everyone else ignores it.
  virtual void set_phase(std::uint16_t /*phase*/) {}

  [[nodiscard]] const AllocatorStats& stats() const { return stats_; }
  [[nodiscard]] sysmem::SystemArena& arena() { return *arena_; }
  [[nodiscard]] const sysmem::SystemArena& arena() const { return *arena_; }

  /// Footprint minus live payload: organization overhead + fragmentation.
  [[nodiscard]] std::size_t waste() const {
    const std::size_t fp = arena_->footprint();
    return fp > stats_.live_bytes ? fp - stats_.live_bytes : 0;
  }

  /// Owner tag this manager stamps on its arena grants.
  [[nodiscard]] const void* owner_tag() const { return this; }

 protected:
  /// Fails a request no arena can grant (> kSlabBytes) before any size
  /// rounding can wrap it; counted as a failed allocation.
  [[nodiscard]] bool reject_oversized(std::size_t bytes) {
    if (bytes <= sysmem::SystemArena::kSlabBytes) return false;
    ++stats_.failed_allocs;
    return true;
  }

  /// This manager's chunk whose grant contains @p p, or nullptr.
  [[nodiscard]] ChunkHeader* own_chunk(const void* p) const {
    const sysmem::Grant grant = arena_->grant_of(p);
    if (grant.owner != owner_tag()) return nullptr;
    return reinterpret_cast<ChunkHeader*>(grant.base);
  }

  void note_alloc(std::size_t payload) {
    ++stats_.alloc_count;
    ++stats_.live_blocks;
    stats_.live_bytes += payload;
    if (stats_.live_bytes > stats_.peak_live_bytes) {
      stats_.peak_live_bytes = stats_.live_bytes;
    }
  }
  void note_free(std::size_t payload) {
    ++stats_.free_count;
    --stats_.live_blocks;
    stats_.live_bytes -= payload;
  }

  sysmem::SystemArena* arena_;
  AllocatorStats stats_;
};

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_ALLOCATOR_H
