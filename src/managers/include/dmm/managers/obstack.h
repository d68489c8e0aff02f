#ifndef DMM_MANAGERS_OBSTACK_H
#define DMM_MANAGERS_OBSTACK_H

#include <string>

#include "dmm/alloc/allocator.h"
#include "dmm/alloc/chunk.h"

namespace dmm::managers {

/// Obstack-style allocator — the custom manager "optimized for stack-like
/// behaviour" the paper runs on the 3D rendering case study (Sec. 5).
///
/// GNU obstacks allocate objects by bumping within chained chunks and
/// reclaim with LIFO discipline; freeing an object conceptually frees
/// everything allocated after it.  To drive it safely from a malloc/free
/// trace (where frees may arrive out of order), this implementation keeps
/// obstack economics while tolerating non-LIFO frees:
///
///   * allocation: bump-carve, one-word header with the object size,
///   * free of the *top* object: the bump pointer retreats, cascading over
///     any earlier objects already marked dead; fully empty chunks are
///     returned to the system (obstack_free releases chunks),
///   * free of a *buried* object: the object is tombstoned — its memory
///     stays put until everything above it dies.
///
/// On stack-like phases this reclaims as aggressively as a real obstack;
/// on non-stack phases tombstones pile up — exactly the "high memory
/// footprint penalty in these phases" the paper reports for Obstacks.
class ObstackAllocator : public alloc::Allocator {
 public:
  explicit ObstackAllocator(sysmem::SystemArena& arena,
                            std::size_t chunk_bytes = 16 * 1024);
  ~ObstackAllocator() override;

  [[nodiscard]] void* allocate(std::size_t bytes) override;
  void deallocate(void* ptr) override;
  [[nodiscard]] std::size_t usable_size(const void* ptr) const override;
  [[nodiscard]] std::string name() const override { return "Obstacks"; }

  /// Bytes currently held by tombstoned (dead but unreclaimed) objects.
  [[nodiscard]] std::size_t tombstone_bytes() const {
    return tombstone_bytes_;
  }

 private:
  // Object = [size_t header: size | dead bit] [payload ...]
  static constexpr std::size_t kHeader = sizeof(std::size_t);
  static constexpr std::size_t kDeadBit = 1;

  [[nodiscard]] static std::size_t header_of(const std::byte* obj) {
    return *reinterpret_cast<const std::size_t*>(obj);
  }

  void pop_dead_tail(alloc::ChunkHeader* chunk);
  void release_if_empty(alloc::ChunkHeader* chunk);

  std::size_t chunk_bytes_;
  alloc::ChunkHeader* chunks_ = nullptr;  ///< top chunk first
  std::size_t tombstone_bytes_ = 0;
};

}  // namespace dmm::managers

#endif  // DMM_MANAGERS_OBSTACK_H
