#ifndef DMM_SYSMEM_ARENA_STATS_H
#define DMM_SYSMEM_ARENA_STATS_H

#include <cstddef>
#include <cstdint>

namespace dmm::sysmem {

/// Aggregate accounting for a SystemArena.
///
/// All byte counts refer to memory *held from the simulated OS*, i.e. the
/// quantity the paper's Table 1 reports as "maximum memory footprint".
/// Internal allocator overheads (headers, free-list slack, cached empty
/// chunks) are by construction included, because every manager obtains all
/// of its memory through the arena.
struct ArenaStats {
  /// Bytes currently held from the OS.
  std::size_t current_footprint = 0;
  /// High-water mark of current_footprint over the arena's lifetime.
  std::size_t peak_footprint = 0;
  /// Sum of all bytes ever requested (monotone).
  std::uint64_t total_requested = 0;
  /// Sum of all bytes ever released back (monotone).
  std::uint64_t total_released = 0;
  /// Number of request() calls that succeeded.
  std::uint64_t request_count = 0;
  /// Number of release() calls.
  std::uint64_t release_count = 0;
  /// Number of request() calls refused (oversized, over the capacity
  /// budget, or slab exhausted).
  std::uint64_t failed_requests = 0;

  /// Live grants = requests minus releases (count, not bytes).
  [[nodiscard]] std::uint64_t live_grants() const {
    return request_count - release_count;
  }
};

}  // namespace dmm::sysmem

#endif  // DMM_SYSMEM_ARENA_STATS_H
