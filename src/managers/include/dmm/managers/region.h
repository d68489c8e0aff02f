#ifndef DMM_MANAGERS_REGION_H
#define DMM_MANAGERS_REGION_H

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dmm/alloc/allocator.h"
#include "dmm/alloc/chunk.h"

namespace dmm::managers {

/// Region manager in the style of the embedded-RTOS allocators the paper
/// compares against for the 3D-reconstruction case study (Sec. 2/5): a
/// manual implementation of the "new kind of region managers [6] found in
/// new embedded OSs (e.g. RTEMS)".
///
/// Semantics, per the paper's description:
///   * one region per block size — "the block sizes of each region are
///     fixed to one block size", so mixed-size request streams create one
///     region per quantised size and cannot share memory across regions:
///     that cross-size isolation plus the quantisation is exactly the
///     internal fragmentation the paper measures against this baseline,
///   * inside a region: bump carving from region chunks plus a LIFO free
///     list of recycled blocks (blocks carry no tags; the size is implied
///     by region membership, recovered through the block's chunk),
///   * regions hold their chunks for their whole lifetime; memory only
///     returns to the system through the explicit region-destroy
///     operation (destroy_empty_regions), which an embedded application
///     calls between processing stages, not per free.
class RegionAllocator : public alloc::Allocator {
 public:
  explicit RegionAllocator(sysmem::SystemArena& arena,
                           std::size_t region_chunk_bytes = 64 * 1024);
  ~RegionAllocator() override;

  [[nodiscard]] void* allocate(std::size_t bytes) override;
  void deallocate(void* ptr) override;
  [[nodiscard]] std::size_t usable_size(const void* ptr) const override;
  [[nodiscard]] std::string name() const override { return "Regions"; }

  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }

  /// Explicit region-destroy: releases the chunks of every region with no
  /// live blocks.  Returns the number of regions destroyed.
  std::size_t destroy_empty_regions();

  /// Region block-size quantisation (fixed sizes per region).
  [[nodiscard]] static std::size_t quantize(std::size_t request);

 private:
  struct FreeNode {
    FreeNode* next;
  };
  struct Region {
    std::size_t block_size = 0;  ///< fixed block size of this region
    alloc::ChunkHeader* chunks = nullptr;
    alloc::ChunkHeader* carve_chunk = nullptr;
    FreeNode* free_list = nullptr;
    std::size_t free_count = 0;
    std::size_t live = 0;  ///< live blocks across the region
  };

  [[nodiscard]] Region& region_for(std::size_t block_size);
  [[nodiscard]] std::byte* carve(Region& region);
  void destroy_region(Region& region);

  std::size_t region_chunk_bytes_;
  std::unordered_map<std::size_t, std::size_t> region_slot_;
  std::vector<std::unique_ptr<Region>> regions_;
  /// chunk -> region slot (regions are per size; blocks carry no tags).
  std::unordered_map<const alloc::ChunkHeader*, std::size_t> chunk_region_;
};

}  // namespace dmm::managers

#endif  // DMM_MANAGERS_REGION_H
