#ifndef DMM_CORE_SIMULATOR_H
#define DMM_CORE_SIMULATOR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dmm/alloc/allocator.h"
#include "dmm/core/trace.h"

namespace dmm::core {

/// Result of replaying a trace through a manager — the cost function of
/// the paper's exploration and the row generator for Table 1.
struct SimResult {
  std::size_t peak_footprint = 0;   ///< Table 1's "maximum memory footprint"
  std::size_t final_footprint = 0;
  double avg_footprint = 0.0;       ///< mean over events
  std::size_t peak_live_bytes = 0;  ///< application demand (lower bound)
  std::uint64_t failed_allocs = 0;
  double wall_seconds = 0.0;        ///< replay wall time (manager work)
  std::uint64_t events = 0;

  /// Footprint overhead factor over the application's own peak demand.
  [[nodiscard]] double overhead_factor() const {
    return peak_live_bytes == 0
               ? 0.0
               : static_cast<double>(peak_footprint) /
                     static_cast<double>(peak_live_bytes);
  }
};

/// One sampled point of the Fig. 5 footprint-over-time series.
struct TimelinePoint {
  std::uint64_t event = 0;
  std::size_t footprint = 0;
  std::size_t live_bytes = 0;
};

/// Replays @p trace through @p manager, tracking the arena footprint.
///
/// Adapter contract: @p manager is a bare policy core (or a fixed-point
/// manager of src/managers) — never the deployable runtime front, whose
/// thread caches and OOM policy would make the replay score a deployment
/// artefact instead of the decision vector.  With caching disabled the
/// front forwards calls 1:1 to its core, so the peak this function reports
/// for a vector is exactly the peak runtime::DesignedAllocator imposes on
/// a single-threaded replay of the same trace (test_runtime_allocator
/// checks this).
///
/// Failed allocations (arena budget) are tolerated: the object is skipped
/// and its free ignored, mirroring an embedded malloc returning NULL.
///
/// If @p timeline is non-null it receives one point every
/// @p timeline_stride events plus the final state; a stride of 0 means
/// "final point only".
SimResult simulate(const TraceSource& trace, alloc::Allocator& manager,
                   std::vector<TimelinePoint>* timeline = nullptr,
                   std::uint64_t timeline_stride = 256);

/// Convenience: build a fresh manager via @p factory, replay, tear down.
/// The arena is local, so the result is isolated and deterministic.
SimResult simulate_fresh(
    const TraceSource& trace,
    const std::function<std::unique_ptr<alloc::Allocator>(
        sysmem::SystemArena&)>& factory,
    std::vector<TimelinePoint>* timeline = nullptr,
    std::uint64_t timeline_stride = 256);

}  // namespace dmm::core

#endif  // DMM_CORE_SIMULATOR_H
