#ifndef DMM_CORE_EXPLORER_H
#define DMM_CORE_EXPLORER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/core/constraints.h"
#include "dmm/core/eval_engine.h"
#include "dmm/core/order.h"
#include "dmm/core/search.h"
#include "dmm/core/simulator.h"
#include "dmm/core/trace.h"

namespace dmm::core {

/// Trace-driven design-space search: the executable form of the paper's
/// methodology.  The headline mode is explore(), the ordered greedy
/// traversal of Sec. 4.2 with constraint propagation; exhaustive() and
/// random_search() exist to validate it (and power the ablation benches).
/// All three are thin wrappers over the SearchStrategy seam (search.h):
/// run() executes any strategy — the built-in five or a caller's own —
/// against this explorer's trace, engine, and caches.
///
/// Candidate evaluations are independent (one isolated arena per replay),
/// so every strategy submits them in batches to a pluggable EvalEngine;
/// the trace is held immutably behind a shared_ptr so pool workers replay
/// it without copies.  Search results — best vector, step logs, simulation
/// and cache-hit counts — are bit-identical across engines and thread
/// counts (wall time in best_sim is the one measured, not replayed).
class Explorer {
 public:
  explicit Explorer(AllocTrace trace, ExplorerOptions opts = {});
  /// Shares an already-recorded trace — or any other TraceSource, e.g. a
  /// MappedTrace streaming a .dmmt file — with other explorers / threads.
  explicit Explorer(std::shared_ptr<const TraceSource> trace,
                    ExplorerOptions opts = {});

  /// Runs @p strategy against this explorer's trace: builds the
  /// SearchContext (cache session, engine binding, result assembly),
  /// executes the strategy, and returns the assembled result.
  [[nodiscard]] ExplorationResult run(SearchStrategy& strategy);

  /// Runs the strategy ExplorerOptions::search selects (greedy over
  /// paper_order() by default) — the CLIs' `--search` entry point.
  [[nodiscard]] ExplorationResult run();

  // The three conveniences below predate the unified request surface and
  // are kept as thin adapters over run_strategy(): each builds the same
  // strategy a SearchSpec would and is pinned bit-for-bit against it at
  // 1/2/4/8 threads by tests/test_api_request.cpp.  New code should state
  // the whole ask as an api::DesignRequest (dmm/api/design_api.h) and call
  // api::run_design_request(), which routes through the same machinery.

  /// Greedy ordered traversal: decide trees in @p order, scoring each
  /// admissible leaf by replaying the trace on the repaired completion.
  /// Adapter for run_strategy(*make_strategy(SearchSpec{kGreedy})).
  [[nodiscard]] ExplorationResult explore(
      const std::vector<TreeId>& order = paper_order());

  /// Exhaustively scores the cartesian product of the given trees' leaves
  /// (other trees repaired from defaults).  Stops after @p max_evals
  /// evaluations (replays + cache hits).  Adapter for ExhaustiveSearch.
  [[nodiscard]] ExplorationResult exhaustive(const std::vector<TreeId>& trees,
                                             std::size_t max_evals = 100000);

  /// Uniform random sampling of full decision vectors (invalid ones are
  /// rejected without simulation).  Adapter for RandomSearch.
  [[nodiscard]] ExplorationResult random_search(std::size_t samples,
                                                unsigned seed = 1);

  /// Replays the trace on a custom manager built from @p cfg.  Routed
  /// through the evaluation engine and, when configured, the shared score
  /// cache — so one-off scoring reuses (and contributes) search replays.
  [[nodiscard]] SimResult score(const alloc::DmmConfig& cfg,
                                std::uint64_t* work_steps = nullptr) const;

  /// Fingerprint of the trace this explorer searches (cached at
  /// construction; the shared score cache keys on it).
  [[nodiscard]] std::uint64_t trace_fingerprint() const {
    return trace_fingerprint_;
  }

  [[nodiscard]] const TraceSource& trace() const { return *trace_; }
  [[nodiscard]] const std::shared_ptr<const TraceSource>& shared_trace()
      const {
    return trace_;
  }
  /// The evaluation backend this explorer submits batches to.
  [[nodiscard]] const EvalEngine& engine() const { return *engine_; }

 private:
  std::shared_ptr<const TraceSource> trace_;
  std::uint64_t trace_fingerprint_ = 0;
  ExplorerOptions opts_;
  std::unique_ptr<EvalEngine> engine_;
};

}  // namespace dmm::core

#endif  // DMM_CORE_EXPLORER_H
