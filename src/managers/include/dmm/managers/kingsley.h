#ifndef DMM_MANAGERS_KINGSLEY_H
#define DMM_MANAGERS_KINGSLEY_H

#include <array>
#include <string>
#include <unordered_map>

#include "dmm/alloc/allocator.h"
#include "dmm/alloc/chunk.h"
#include "dmm/alloc/size_class.h"

namespace dmm::managers {

/// Kingsley power-of-two segregated-storage allocator — the Windows-lineage
/// general-purpose manager the paper benchmarks against (Sec. 2/5).
///
/// Faithful to the classic BSD 4.2 design the survey describes, plus the
/// behaviour the paper observes in its DRR discussion ("an initial memory
/// region is reserved and distributed among the different lists of block
/// sizes; however, only a limited amount of block sizes is used and thus
/// memory is misused"):
///   * an initial reserve is pre-carved into blocks spread equally over
///     the small classes (16 B .. 4 KiB) at construction,
///   * requests are rounded up to the next power of two (huge internal
///     fragmentation for awkward sizes),
///   * one LIFO free list per class; freed blocks go back to their class
///     list and are NEVER split, coalesced, or returned to the system,
///   * each block carries a one-word header recording its class so free()
///     can find the list.
///
/// The result is the fastest manager in the library (a pop/push per op)
/// and the most memory-hungry — exactly its role in Table 1.
class KingsleyAllocator : public alloc::Allocator {
 public:
  explicit KingsleyAllocator(sysmem::SystemArena& arena,
                             std::size_t chunk_bytes = 64 * 1024,
                             std::size_t initial_reserve_bytes = 1 << 20);
  ~KingsleyAllocator() override;

  [[nodiscard]] void* allocate(std::size_t bytes) override;
  void deallocate(void* ptr) override;
  [[nodiscard]] std::size_t usable_size(const void* ptr) const override;
  [[nodiscard]] std::string name() const override { return "Kingsley"; }

  /// Free blocks currently cached in class @p idx (tests).
  [[nodiscard]] std::size_t free_blocks_in_class(unsigned idx) const;

 private:
  struct FreeNode {
    FreeNode* next;
  };
  // Block = [size_t header: class block size] [payload ...]
  static constexpr std::size_t kHeader = sizeof(std::size_t);

  [[nodiscard]] std::byte* carve(std::size_t block_size);

  std::size_t chunk_bytes_;
  std::array<FreeNode*, alloc::SizeClass::kCount> bins_{};
  std::array<std::size_t, alloc::SizeClass::kCount> bin_counts_{};
  alloc::ChunkHeader* carve_chunk_ = nullptr;
};

}  // namespace dmm::managers

#endif  // DMM_MANAGERS_KINGSLEY_H
