#ifndef DMM_TRACE_TRACE_SAMPLE_H
#define DMM_TRACE_TRACE_SAMPLE_H

#include <cstdint>
#include <vector>

#include "dmm/core/trace.h"

namespace dmm::trace {

/// Stratified trace down-sampling for bounded-budget search.
///
/// Objects (alloc/free pairs) are stratified by (power-of-two size class,
/// allocation phase) and kept with a per-stratum Bernoulli inclusion
/// probability: proportional to the budget, floored so rare strata — the
/// occasional huge allocation that dominates the peak — stay represented
/// instead of vanishing from a uniform sample.  Inclusion is a
/// deterministic hash of (seed, object id), so a given (source, budget,
/// seed) always yields the same sample, on any thread count.
///
/// A sample is a search accelerator, not a footprint estimator: run the
/// search on the sample, then re-score the winner on the full trace for
/// its true peak.
///
/// Memory is O(strata + concurrently-live sampled objects): two streaming
/// passes over the source, never a per-object table of the population.

struct SampleOptions {
  /// Target sampled event count (approximate; a kept object contributes
  /// its alloc and its free).  0 means keep everything.
  std::uint64_t budget = 0;
  std::uint64_t seed = 1;
  /// Per-stratum floor: strata with at most this many objects are kept
  /// whole; larger ones never drop below ~this expected count.
  std::uint64_t min_per_stratum = 64;
};

struct StratumReport {
  unsigned size_class = 0;   ///< alloc::SizeClass::index_for of the size
  std::uint16_t phase = 0;   ///< phase of the allocation event
  std::uint64_t objects = 0; ///< population objects in this stratum
  std::uint64_t sampled = 0; ///< objects the sample kept
  double rate = 0.0;         ///< inclusion probability applied
};

struct SampleResult {
  /// The sampled trace: original sizes and phases, ids renumbered densely
  /// in first-kept order.  Always validate()-clean.
  core::AllocTrace trace;
  std::uint64_t population_events = 0;
  std::uint64_t sampled_objects = 0;
  std::vector<StratumReport> strata;  ///< sorted by (size_class, phase)
};

[[nodiscard]] SampleResult sample_trace(const core::TraceSource& source,
                                        const SampleOptions& opts);

/// Convenience overload: budget + seed, default stratum floor.
[[nodiscard]] SampleResult sample_trace(const core::TraceSource& source,
                                        std::uint64_t budget,
                                        std::uint64_t seed = 1);

}  // namespace dmm::trace

#endif  // DMM_TRACE_TRACE_SAMPLE_H
