#ifndef DMM_CORE_METHODOLOGY_H
#define DMM_CORE_METHODOLOGY_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dmm/core/global_manager.h"
#include "dmm/core/phase.h"
#include "dmm/core/search.h"

namespace dmm::core {

/// Options of one design run (DesignRun, design_manager(),
/// design_manager_family()).  One trace means a phased run, two or more a
/// family run; a field that does not apply to the trace count makes the
/// run throw std::invalid_argument instead of being silently ignored.
/// Ordered strategies traverse paper_order(), phases are detected with
/// PhaseDetectorOptions{}, and each validation pass is an ExhaustiveSearch
/// at its default budget.
struct DesignOptions {
  /// Steers every search of the run.  `search` picks the strategy (greedy
  /// by default; the same SearchSpec grammar as the CLIs' --search flag).
  /// Set `shared_cache` to serve the whole run — all phase walks plus the
  /// validation passes, or the family search — from one cross-search score
  /// cache.  In family mode an evaluation budget (the anneal, exhaustive
  /// and random budgets) is counted in *family* evaluations — one per
  /// candidate, however many member traces it replays.
  ExplorerOptions explorer_options{};
  /// Single trace only: re-detect phases from the trace; when false, the
  /// phase annotations already present in the trace (profiler markers)
  /// are used as-is.
  bool detect_phases = false;
  /// Single trace only: cross-check each phase's walk against the
  /// exhaustive searcher over validation_trees (the paper's
  /// greedy-vs-ground-truth comparison).  With a shared cache the
  /// validator reuses the walk's replays and only pays for vectors the
  /// walk never visited.
  bool validate = false;
  /// Subspace the validator, or an exhaustive strategy/child, enumerates
  /// (its coherent positions).
  std::vector<TreeId> validation_trees = high_impact_trees();
  /// Persist the run's shared score cache across processes.  When
  /// non-empty (and explorer_options.cache is on), DesignRun::complete()
  /// loads this snapshot before the first search — the run creates
  /// explorer_options.shared_cache first if none was injected, so one
  /// cache still serves every search — and saves it back atomically after
  /// the last, and on the failure path.  A rejected snapshot (truncated,
  /// corrupted, version mismatch) just means a cold start; warm hits are
  /// reported as persisted hits.
  std::string cache_file;
  /// Family only: how per-trace scores fold into the objective the search
  /// minimises.
  FamilyAggregate aggregate = FamilyAggregate::kMaxPeak;
  /// Family only: kWeightedSum member weights, finite and non-negative;
  /// empty = 1.0 each, anything else must match the trace count.
  std::vector<double> weights;
  /// Family only: extra candidate vectors scored on the aggregate after
  /// the search and offered to the incumbent — seeding with each trace's
  /// solo-designed best guarantees the family result is never worse
  /// (beyond the comparator's 1% tie band) than deploying any one of them
  /// family-wide.  Offered after the search, not before: an ordered walk
  /// crowns its own completion and would clobber a pre-offered seed.
  std::vector<alloc::DmmConfig> seed_candidates;
};

/// Everything the methodology produces for one application.
struct MethodologyResult {
  /// Event span of every phase present in the trace (a phase id with no
  /// events has none, so this can be shorter than phase_configs).
  std::vector<PhaseSpan> phases;
  /// One decision vector per phase id — the atomic DM managers (Sec. 3.3);
  /// a phase without allocations gets ExplorerOptions::defaults.
  std::vector<alloc::DmmConfig> phase_configs;
  /// Per-phase exploration logs (decision walks as in Sec. 5).
  std::vector<ExplorationResult> phase_results;
  /// Per-phase exhaustive validation passes (empty unless
  /// DesignOptions::validate; entries for empty phases are default).
  std::vector<ExplorationResult> validation_results;
  std::uint64_t total_simulations = 0;
  /// Evaluations a score cache answered without a replay, across every
  /// search of the run (walks and validation passes).
  std::uint64_t total_cache_hits = 0;
  /// Subset of total_cache_hits served from entries another search of the
  /// shared cache replayed — 0 unless explorer_options.shared_cache is
  /// set.  With it, the validator typically rides the walk's replays.
  std::uint64_t total_cross_search_hits = 0;
  /// Subset of total_cache_hits served from snapshot entries a previous
  /// process replayed (DesignOptions::cache_file); disjoint from
  /// total_cross_search_hits.
  std::uint64_t total_persisted_hits = 0;

  /// Instantiates the designed manager over @p arena: a single atomic
  /// CustomManager for single-phase applications, a GlobalManager
  /// otherwise.
  [[nodiscard]] std::unique_ptr<alloc::Allocator> make_manager(
      sysmem::SystemArena& arena, bool strict_accounting = true) const;
};

/// The paper's flow in one call: (profile already done — @p trace),
/// detect/respect phases, traverse the ordered trees per phase, and return
/// the atomic decision vectors plus a factory for the global manager.
/// A DesignRun stepped to completion (DesignRun::complete()).
///
/// api::run_design_request() (dmm/api/design_api.h) runs a DesignRequest
/// through the same DesignRun, and tests/test_api_request.cpp pins the two
/// bit-for-bit at 1/2/4/8 threads.  Prefer a DesignRequest when the ask
/// comes from a CLI, the dmm_serve daemon, or anywhere the knobs should be
/// validated and serialized as one value.
[[nodiscard]] MethodologyResult design_manager(
    const AllocTrace& trace, const DesignOptions& options = {});

// ---------------------------------------------------------------------------
// Family design: one decision vector for a *set* of traces.  The paper
// designs one custom manager from a single profiled run; a deployed
// manager serves whatever input mix the application actually sees, so the
// family mode searches the same decision space against every trace at once
// (see FamilyAggregate for the fold) instead of overfitting to one.
// ---------------------------------------------------------------------------

/// How the family-designed vector behaves on one member trace.
struct FamilyTraceReport {
  std::uint64_t fingerprint = 0;  ///< AllocTrace::fingerprint of the member
  SimResult sim{};                ///< the family vector replayed on it
  std::uint64_t work_steps = 0;
  [[nodiscard]] bool feasible() const { return sim.failed_allocs == 0; }
};

/// Everything design_manager_family() produces.
struct FamilyDesignResult {
  /// The one vector designed for the whole family.
  alloc::DmmConfig best{};
  /// Feasible on *every* member trace.
  bool feasible = false;
  /// The aggregate objective of `best` (candidate_objective over the
  /// folded outcome: worst-case peak under kMaxPeak, weighted-sum peak
  /// under kWeightedSum).
  double aggregate_objective = 0.0;
  /// Index into DesignOptions::seed_candidates of the seed that
  /// ended up as `best`, or -1 when the search's own result won.  When a
  /// seed wins, the search log's step log is cleared — the walk did not
  /// find the best.
  int best_seed = -1;
  /// The family-space search log: accounting counts *member* replays and
  /// hits, and evals_to_best counts family evaluations.
  ExplorationResult search;
  /// Per-member breakdown of `best`, in trace order.
  std::vector<FamilyTraceReport> per_trace;
};

/// Designs one decision vector for the whole trace family: every candidate
/// is scored on every trace and folded by options.aggregate, so the winner
/// is the vector that serves the *family* best, not any single profile.
/// Phases are not split in family mode — the result is one atomic manager.
/// Throws std::invalid_argument on fewer than two traces or options the
/// DesignRun constructor rejects.
///
/// A family DesignRun stepped to completion, plus the per-trace breakdown
/// of the winner.  A multi-trace api::DesignRequest runs the same
/// DesignRun, pinned bit-for-bit by tests/test_api_request.cpp.
[[nodiscard]] FamilyDesignResult design_manager_family(
    const std::vector<AllocTrace>& traces, const DesignOptions& options = {});

// ---------------------------------------------------------------------------
// DesignRun: the design flow as one resumable value.  design_manager(),
// design_manager_family(), api::run_design_request() and the dmm_serve
// daemon all execute this one search sequence; the daemon deals it in
// step() slices so requests interleave.
// ---------------------------------------------------------------------------

/// Where a DesignRun stands — what the daemon streams as progress.
struct DesignProgress {
  std::size_t phase = 0;        ///< phase being searched (0-based)
  std::size_t phase_count = 1;  ///< 1 for a family
  /// Charged evaluations, the unit step() budgets meter (a family
  /// candidate is one, however many member traces it replays).
  std::uint64_t evaluations = 0;
  std::uint64_t simulations = 0;
  std::uint64_t cache_hits = 0;
  /// Best vector of the open search, or of the last finished one.
  bool has_incumbent = false;
  alloc::DmmConfig incumbent{};
  std::size_t incumbent_peak = 0;
};

/// The paper's search sequence as one resumable value.  A single-trace run
/// splits the trace into phases (detected, or its own annotations) and
/// searches each non-empty phase with explorer_options.search, followed —
/// with DesignOptions::validate — by the exhaustive validation pass;
/// empty phases keep ExplorerOptions::defaults.  A family run is one
/// family-wide search followed by the seed candidates.  The run borrows
/// one EvalEngine throughout and splits the sub-traces once.  Results are
/// bit-identical however the run is sliced: streaming strategies pause and
/// resume exactly, ordered walks are indivisible (SearchStrategy::step).
class DesignRun {
 public:
  /// One trace: a phased run (the trace is read only during
  /// construction).  Two or more: a family run over @p traces, which must
  /// outlive the run.  Throws std::invalid_argument on no traces, on a
  /// field that does not apply to the trace count (validate or
  /// detect_phases on a family; weights, seeds or a non-max aggregate on a
  /// single trace), on a weight list whose size does not match the trace
  /// count, and on a negative or non-finite time_weight or weight.
  DesignRun(std::span<const AllocTrace> traces, const DesignOptions& options,
            EvalEngine& engine);

  DesignRun(const DesignRun&) = delete;
  DesignRun& operator=(const DesignRun&) = delete;

  /// Charges at most @p eval_budget more evaluations (an ordered walk may
  /// overshoot), moving on as searches end; true iff work is left.
  bool step(std::size_t eval_budget);

  /// Steps to the end.  The one place a design run's snapshot is loaded
  /// and saved: with a cache_file (and caching on) the run's cache is
  /// loaded first and saved last — and on the failure path, since an
  /// exception escaping main() never unwinds a guard.
  void complete();

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool family() const { return !members_.empty(); }
  [[nodiscard]] DesignProgress progress() const;
  /// The resolved options; explorer_options.shared_cache is the run's
  /// cache (injected, or run-scoped for family and cache_file runs).
  [[nodiscard]] const DesignOptions& options() const { return options_; }

  /// What the run produced so far: every finished phase, plus the
  /// accounting — never the incumbent — of a search interrupted by
  /// cancel, budget or shutdown.  Call once; the run is spent after.
  [[nodiscard]] MethodologyResult harvest();
  /// The family counterpart (per_trace left empty); an interrupted family
  /// run reports only the search accounting.  Family runs only.
  [[nodiscard]] FamilyDesignResult harvest_family();

 private:
  /// Opens the search at the cursor (skipping empty phases), or ends.
  void open_search();
  /// Files the finished search's result and opens the next one.
  void close_search();
  /// Closes an unfinished search, charging only its accounting.
  void interrupt();
  void charge(const ExplorationResult& r);

  /// explorer_options is the home every SearchContext references.
  DesignOptions options_;
  EvalEngine& engine_;

  std::vector<AllocTrace> sub_traces_;
  std::size_t phase_ = 0;
  bool in_validation_ = false;
  MethodologyResult design_;  ///< family runs keep only the totals here

  std::vector<FamilyEvalMember> members_;
  FamilyDesignResult family_;

  std::unique_ptr<SearchContext> ctx_;
  std::unique_ptr<SearchStrategy> strategy_;
  /// Evaluations of finished searches and the last one's incumbent.
  DesignProgress closed_;
  bool done_ = false;
};

}  // namespace dmm::core

#endif  // DMM_CORE_METHODOLOGY_H
