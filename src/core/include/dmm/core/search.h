#ifndef DMM_CORE_SEARCH_H
#define DMM_CORE_SEARCH_H

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/core/constraints.h"
#include "dmm/core/eval_engine.h"
#include "dmm/core/order.h"
#include "dmm/core/simulator.h"
#include "dmm/core/trace.h"

namespace dmm::core {

// ===========================================================================
// The search layer: everything between "a trace to optimise for" and "the
// best decision vector we found".  A SearchStrategy encodes *where to look*
// (the ordered walk — greedy is its width 1 — exhaustive odometer, random
// sampling, annealing) in one entry point, step(); the SearchContext it
// runs against owns everything the strategies share — job streaming into
// the EvalEngine, candidate_better-based best tracking, the
// per-search/shared/persisted cache accounting, and ExplorationResult
// assembly — so a new searcher is ~100 lines of "propose vectors, offer
// outcomes", not a fork of the search loop.  Every full vector a strategy
// scores is coherent (alloc::is_valid, the space coherent_space() lists),
// and no two coherent vectors share a canonical form, so no strategy needs
// a duplicate filter.  run_search() runs one strategy over one trace;
// core::DesignRun sequences them for a whole design.
// ===========================================================================

/// Parsed strategy selection, the CLI's `--search` value (grammar in
/// kSearchSpecForms).  Ordered strategies (beam, greedy = beam width 1)
/// traverse the order the caller passes to make_strategy(); exhaustive
/// enumerates the caller's tree subspace.
struct SearchSpec {
  enum class Kind { kBeam, kAnneal, kExhaustive, kRandom };
  Kind kind = Kind::kBeam;
  std::size_t width = 1;  ///< kBeam; 1 is the paper's greedy walk
  /// Evaluation budget of the streaming kinds (replays + cache hits); 0
  /// stands for the kind's default (eval_budget()).
  std::size_t budget = 0;
  unsigned seed = 1;  ///< kAnneal / kRandom

  /// `budget`, or the kind's default when it is 0: anneal 400, exhaustive
  /// 100,000, random 200.
  [[nodiscard]] std::size_t eval_budget() const;
};

/// Options steering the search (paper Sec. 4/5).
struct ExplorerOptions {
  /// Values undecided trees hold before repair; also the seed vector.
  /// Capability-max by default: when a tree is scored, the still-undecided
  /// trees complete it with *supporting* choices (constraint repair), so a
  /// leaf is judged by the best manager family it can lead to — the way
  /// the paper's Sec. 5 walk reasons ("many block sizes ... because the
  /// application requests blocks that vary greatly").  The Fig. 4 trap is
  /// about a *myopic* designer deciding A3 by local cost; the ablation
  /// bench models that explicitly (alloc::minimal_config() defaults +
  /// fig4_wrong_order()) rather than through these defaults.
  alloc::DmmConfig defaults{};
  /// Secondary objective weight: score = peak + time_weight * work_steps.
  /// 0 keeps the paper's pure-footprint objective (work only tie-breaks).
  double time_weight = 0.0;
  /// Candidate-evaluation parallelism, the EvalEngine's worker count:
  /// 1 = every replay runs inline at submit, N > 1 = N pool workers, 0 =
  /// one worker per hardware thread.  Results are bit-identical regardless
  /// of this value.
  unsigned num_threads = 1;
  /// Memoize candidate scores — repaired completions collide often in the
  /// greedy walk, and a hit skips a whole trace replay.  Without
  /// `shared_cache` each search memoizes in a private SharedScoreCache of
  /// its own, for the duration of that search.
  bool cache = true;
  /// Score cache shared between searches, explorers, and threads (keyed
  /// by trace fingerprint x canonical vector).  When set (and `cache` is
  /// on) every search — each phase's greedy walk plus the validation
  /// passes of a design run — reuses the others' replays.  Search outcomes
  /// (best, step logs) are bit-identical either way; only the
  /// simulations/cache_hits split shifts as more replays are reused.
  /// Persisting it across processes is the caller's business
  /// (SharedScoreCache::load / save, or DesignOptions::cache_file).
  std::shared_ptr<SharedScoreCache> shared_cache;
  /// The strategy a design run executes per search (make_strategy); the
  /// CLIs' `--search` flag lands here.  run_search() ignores it and runs
  /// the strategy it is handed.
  SearchSpec search{};
};

/// Score of one candidate leaf during a traversal step.
struct CandidateScore {
  int leaf = -1;
  bool admissible = false;
  std::size_t peak_footprint = 0;
  double avg_footprint = 0.0;
  std::uint64_t work_steps = 0;
  std::uint64_t failed_allocs = 0;
};

/// One decided tree: which leaf won and what every candidate scored.
struct StepLog {
  TreeId tree{};
  int chosen = -1;
  std::vector<CandidateScore> candidates;
};

/// Outcome of a search over the decision space.
struct ExplorationResult {
  alloc::DmmConfig best{};
  SimResult best_sim{};
  /// True iff `best` replayed the whole trace without a failed allocation.
  /// When false no candidate was feasible: `best` is only the least-bad
  /// vector (fewest failures), not a usable design.
  bool feasible = false;
  std::uint64_t work_steps = 0;     ///< manager work during best replay
  std::vector<StepLog> steps;       ///< ordered-traversal log (if used)
  std::uint64_t simulations = 0;    ///< trace replays actually executed
  std::uint64_t cache_hits = 0;     ///< evaluations served by a score cache
  /// Subset of cache_hits paid for by a *different* search on the shared
  /// cache (always 0 with a search's private cache).
  std::uint64_t cross_search_hits = 0;
  /// Subset of cache_hits served from snapshot entries a previous process
  /// replayed (SharedScoreCache::load, DesignOptions::cache_file);
  /// disjoint from cross_search_hits.
  std::uint64_t persisted_hits = 0;
  /// Family mode only: evaluations served *whole* from the aggregate-level
  /// cache (keyed by the trace-set fingerprint) — counted in candidates,
  /// not member touches, and disjoint from cache_hits, which stays in
  /// per-member units.  Always 0 in single-trace mode.
  std::uint64_t family_hits = 0;
  /// Evaluations (replays + cache hits) charged up to and including the
  /// batch in which the winning vector was recorded — the benches'
  /// "evals-to-best".  Streaming searches improve mid-run; ordered walks
  /// commit their completion only at the end, so theirs equals the total.
  std::uint64_t evals_to_best = 0;
};

/// Lexicographic candidate comparison shared by every search mode: primary
/// objective (peak footprint, optionally time-weighted), then average
/// footprint — the paper's "returned back to the system for other
/// applications" benefit — then manager work.  Peaks within 1% count as
/// tied: the paper reports <2% run-to-run variation (Sec. 5), so
/// differences at that scale are placement noise, not design signal.
///
/// Infinite objectives (infeasible candidates) are handled explicitly: a
/// feasible candidate always beats an infeasible one, and two infeasible
/// ones rank by failed-allocation count (closest to feasible first) — the
/// naive `abs(obj_a - obj_b) > 0.01 * min(...)` would be NaN when both
/// objectives are +inf and silently fall through to the footprint tiers.
[[nodiscard]] bool candidate_better(double obj_a, std::uint64_t failed_a,
                                    double avg_a, std::uint64_t work_a,
                                    double obj_b, std::uint64_t failed_b,
                                    double avg_b, std::uint64_t work_b);

/// The primary objective of one scored candidate: peak footprint plus the
/// optional time_weight * work term; +inf for infeasible replays.
[[nodiscard]] double candidate_objective(const ExplorerOptions& opts,
                                         const SimResult& sim,
                                         std::uint64_t work);

/// Running "best so far" over a stream of outcomes, processed in job
/// order — the selection is a strict left fold, which is what keeps the
/// winner independent of how the engine scheduled the replays.
struct BestTracker {
  double obj = 0;
  std::uint64_t failed = 0;
  double avg = 0;
  std::uint64_t work = 0;
  bool any = false;

  /// True iff @p out displaces the incumbent.
  bool offer(const ExplorerOptions& opts, const EvalOutcome& out);

  /// The incumbent replayed the trace without a failed allocation.
  [[nodiscard]] bool feasible() const { return any && failed == 0; }
};

/// What every SearchStrategy runs against: one search call's worth of the
/// machinery the strategies would otherwise each reimplement.
///
///   * submit()/drain() — stream jobs into the EvalEngine through the
///     search's cache session (on the injected shared cache, or on a
///     private one the context owns; none with caching off) and charge
///     simulations vs cache_hits; evaluate() is submit-each + drain().
///   * offer_best() — candidate_better-based incumbent tracking,
///     recording best/best_sim/work_steps/evals_to_best.
///   * hint() — speculation: jobs the strategy expects to submit later,
///     replayed by idle engine workers and adopted at submit (see
///     EvalEngine::hint); never part of any accounting.
///   * finish() — waits out speculation, harvests the cache session's
///     cross-search/persisted hit counters and assembles the
///     ExplorationResult.
///
/// A context is single-use and single-threaded, like the search call that
/// owns it (parallelism lives inside the engine).
///
/// A context evaluates against either ONE trace (the classic constructor)
/// or a *family* of traces: in family mode every job is scored on every
/// member (each member evaluation rides the per-trace score-cache entries
/// single-trace searches share) and folded by the configured aggregate,
/// with the aggregated score itself cached under family_fingerprint().
/// One family evaluation charges ONE evaluation to the budget
/// (evaluations()).  Accounting units: simulations/cache_hits count
/// per-member replays and hits; a candidate served whole from the
/// aggregate-level cache skips its member evaluations entirely and is
/// counted (in candidates) as ExplorationResult::family_hits instead —
/// so a warm family run reports fewer member touches than a cold one,
/// but never a different result.
class SearchContext {
 public:
  SearchContext(const TraceSource& trace, std::uint64_t trace_fingerprint,
                const ExplorerOptions& opts, EvalEngine& engine);
  /// Family mode: @p family must be non-empty; member fingerprints are the
  /// members' TraceSource::fingerprint values.
  SearchContext(std::vector<FamilyEvalMember> family,
                FamilyAggregate aggregate, const ExplorerOptions& opts,
                EvalEngine& engine);
  /// Settles the engine's hints (see finish()).
  ~SearchContext();
  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  [[nodiscard]] const ExplorerOptions& options() const { return opts_; }
  /// Single-trace mode: the trace; family mode: the first member.
  [[nodiscard]] const TraceSource& trace() const {
    return trace_ != nullptr ? *trace_ : *family_[0].trace;
  }

  /// Streaming evaluation: submit() hands one job to the engine
  /// immediately — workers start replaying it while the strategy is still
  /// generating siblings — and drain() blocks for every outcome and closes
  /// the stream.  Outcomes are emitted, charged, and cache-inserted in
  /// submit order, so the simulations/cache_hits split is a function of
  /// the job stream alone.  In family mode submissions are buffered and
  /// drain() folds them as one evaluate_family() batch (family scoring
  /// needs whole batches), so strategies stream unconditionally.
  void submit(const EvalJob& job);
  [[nodiscard]] std::vector<EvalOutcome> drain();

  /// Scores a batch: submit() each job, then drain().  Do not call it
  /// while a stream is open (between the first submit() and the drain()).
  [[nodiscard]] std::vector<EvalOutcome> evaluate(
      const std::vector<EvalJob>& jobs);

  /// True iff hint() can pay off: single-trace mode, a score cache (hints
  /// are matched by canonical form), and an engine with more than one
  /// worker.  Strategies skip their lookahead otherwise.
  [[nodiscard]] bool speculating() const {
    return trace_ != nullptr && cache_.session.has_value() &&
           engine_.threads() > 1;
  }
  /// Hands the engine a job this search expects to submit later (no-op
  /// unless speculating()).  Hints are replayed FIFO by workers with no
  /// real job queued; a later submit of the same canonical vector adopts
  /// the result.  Nothing about a hint is charged or cached, so results
  /// and accounting are exactly those of a run without hints.
  void hint(const EvalJob& job);
  /// Forgets the hints no worker has started (e.g. after the walk moved
  /// on and their predictions may be stale).
  void drop_hints() { engine_.drop_hints(); }

  /// Evaluations charged so far — the budget every streaming strategy
  /// meters against.  One charge per scored candidate: replay-or-hit in
  /// single-trace mode, one whole-family fold in family mode.
  [[nodiscard]] std::uint64_t evaluations() const { return charged_; }

  /// Offers a scored full vector to the incumbent (left fold over calls);
  /// true iff it displaced the best, which records cfg/sim/work.
  bool offer_best(const alloc::DmmConfig& cfg, const EvalOutcome& out);

  /// The in-progress result — strategies append step logs here.
  [[nodiscard]] ExplorationResult& result() { return result_; }

  /// True on the first call for this context, false after.  A streaming
  /// strategy asks at the top of step() and starts its search state afresh
  /// when it is true, so one strategy object can run search after search.
  [[nodiscard]] bool first_step() { return !std::exchange(stepped_, true); }

  /// Drops queued hints and waits for running ones (the trace may be
  /// destroyed right after), then assembles and returns the final result
  /// (call exactly once).
  [[nodiscard]] ExplorationResult finish();

 private:
  /// The cache one search evaluates against: a session on the injected
  /// shared cache when configured, else on a private cache the binding
  /// owns (so every hit is the search's own), nothing when caching is off.
  struct CacheBinding {
    std::unique_ptr<SharedScoreCache> own;
    std::optional<SharedScoreCache::Session> session;

    CacheBinding(const ExplorerOptions& opts, std::uint64_t trace_fingerprint);
    [[nodiscard]] SharedScoreCache::Session* ptr() {
      return session ? &*session : nullptr;
    }
  };

  [[nodiscard]] std::vector<EvalOutcome> evaluate_family(
      const std::vector<EvalJob>& jobs);

  /// Per-outcome accounting shared by drain() and the family member
  /// batches: the simulations vs cache_hits split.
  void account(const EvalOutcome& out);

  const TraceSource* trace_ = nullptr;  ///< single-trace mode; else family_
  std::vector<FamilyEvalMember> family_;
  FamilyAggregate aggregate_ = FamilyAggregate::kMaxPeak;
  const ExplorerOptions& opts_;
  EvalEngine& engine_;
  /// Single-trace mode: the one score-cache binding.  Family mode: the
  /// *aggregate-level* binding, keyed by family_fingerprint().
  CacheBinding cache_;
  /// Family mode only: one binding per member, keyed by that member's
  /// trace fingerprint — the entries single-trace searches share.
  std::vector<std::unique_ptr<CacheBinding>> member_caches_;
  BestTracker tracker_;
  ExplorationResult result_;
  std::uint64_t charged_ = 0;
  bool stepped_ = false;
  bool stream_open_ = false;
  /// Family-mode streaming: jobs buffered between submit() and drain().
  std::vector<EvalJob> stream_pending_;
};

/// A search algorithm over the decision space: proposes candidate vectors
/// and offers their outcomes to the context.  Implementations own *where
/// to look*; the context owns scoring, accounting, and result assembly.
/// A strategy object runs one search at a time (its state restarts on each
/// new SearchContext); run one via run_search().
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;

  /// Short id for logs/benches ("greedy", "beam:4", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Charges at most @p eval_budget more evaluations against @p ctx (and
  /// never more than the strategy's own remaining budget), then returns
  /// true iff the search can still make progress.  Drivers that interleave
  /// searches (DesignRun, and through it the dmm_serve scheduler) deal
  /// slices through it.  The streaming strategies (exhaustive, random,
  /// annealing) pause and resume exactly; an ordered walk is indivisible,
  /// so it completes in the first step — possibly overshooting the slice —
  /// and returns false.
  virtual bool step(SearchContext& ctx, std::size_t eval_budget) = 0;
};

/// The paper's ordered traversal (Sec. 4.2), width k: decide trees in
/// order, scoring each admissible leaf of every surviving partial vector by
/// replaying the trace on its repaired completion; the k best partial
/// vectors (ranked by candidate_better over their expansions, in job
/// order) survive each tree.  Width 1 is the paper's greedy walk.  Width
/// >= 2 keeps a locally second-best leaf — the Fig. 4 example's
/// A3=header against the myopically cheaper A3=none — alive until its
/// downstream payoff is visible.  The step log reports the winning beam's
/// path.
class BeamSearch final : public SearchStrategy {
 public:
  explicit BeamSearch(std::size_t width,
                      std::vector<TreeId> order = paper_order());
  /// "greedy" at width 1, "beam:K" otherwise.
  [[nodiscard]] std::string name() const override;
  bool step(SearchContext& ctx, std::size_t eval_budget) override;

 private:
  std::size_t width_;
  std::vector<TreeId> order_;
};

/// Exhaustive odometer over the given trees' cartesian product (other
/// trees repaired from defaults), scoring the positions whose repaired
/// vector is coherent.  repair() never touches the enumerated trees, so
/// two positions never score the same manager.  Stops after @p max_evals
/// evaluations (replays + cache hits).
class ExhaustiveSearch final : public SearchStrategy {
 public:
  explicit ExhaustiveSearch(std::vector<TreeId> trees,
                            std::size_t max_evals = 100000);
  [[nodiscard]] std::string name() const override { return "exhaustive"; }
  bool step(SearchContext& ctx, std::size_t eval_budget) override;

 private:
  std::vector<TreeId> trees_;
  std::size_t max_evals_;
  // step() state: the odometer position.
  bool done_ = false;
  std::vector<int> leaf_;
};

/// Uniform random sampling of coherent vectors, with replacement: each
/// draw is an index into coherent_space(), whose 15 leaves are copied onto
/// ExplorerOptions::defaults.  Every draw is scored, so a search of
/// @p samples makes exactly that many evaluations (duplicate draws are
/// charged and served by the score cache).
class RandomSearch final : public SearchStrategy {
 public:
  RandomSearch(std::size_t samples, unsigned seed);
  [[nodiscard]] std::string name() const override { return "random"; }
  bool step(SearchContext& ctx, std::size_t eval_budget) override;

 private:
  std::size_t samples_;
  unsigned seed_;
  // step() state: the draw stream position.
  std::mt19937 rng_;
};

/// Seeded, deterministic simulated annealing over the coherent space.
///
/// State is a full *canonical* decision vector.  A move mutates one tree
/// to a different leaf, minimally repairs the trees a violated rule drags
/// along (Constraints::repair with only the mutated tree decided — the
/// "decide A5, schedules follow" coupling that makes single-leaf moves
/// able to cross mechanism boundaries at all), draws again when the result
/// is not coherent, and canonicalizes the numeric knobs outside the trees.
/// repair() keeps the mutated leaf, so a proposal never equals the state.
/// Energy is the shared candidate objective, with infeasible vectors
/// ranked beyond any feasible one by failed-alloc count.  Cooling is
/// geometric: the temperature starts at 0.10 x max(1, start energy) and is
/// multiplied by 0.95 after every 8 evaluated proposals.  Uphill moves are
/// accepted iff u < exp(-delta/T) with u drawn from the seeded mt19937
/// (consumed only on uphill proposals), so a fixed seed fixes the whole
/// trajectory on every platform.
class AnnealingSearch final : public SearchStrategy {
 public:
  /// @p max_evals is the evaluation budget (replays + cache hits);
  /// proposals rejected before scoring (not coherent) are not charged.
  AnnealingSearch(std::size_t max_evals, unsigned seed);
  [[nodiscard]] std::string name() const override { return "anneal"; }
  bool step(SearchContext& ctx, std::size_t eval_budget) override;

 private:
  std::size_t max_evals_;
  unsigned seed_;
  // step() state: the SA trajectory (state/energy/temperature/rng).
  bool frozen_ = false;
  std::mt19937 rng_;
  alloc::DmmConfig state_{};
  double energy_ = 0.0;
  double temp_ = 0.0;
  std::size_t since_cool_ = 0;
};

/// The high-impact subspace the exhaustive validator enumerates by
/// default (also DesignOptions::validation_trees' default).
[[nodiscard]] const std::vector<TreeId>& high_impact_trees();

/// Strict digits-only parse of a whole non-negative number, shared by the
/// spec grammar and the CLIs/benches: nullopt on empty input, any
/// non-digit character (signs, whitespace, hex, trailing junk), and on
/// values that overflow uint64 — where strtoull would silently clamp to
/// ULLONG_MAX and atoi would return garbage.
[[nodiscard]] std::optional<std::uint64_t> parse_number(
    const std::string& text);

/// The `--search` grammar parse_search_spec() accepts, as every error
/// message names it: "beam:K" takes K >= 1, "anneal:SEED" seeds the
/// trajectory, "exhaustive:N" (N >= 1) caps the enumeration budget, and
/// "random:N:SEED" draws N >= 1 samples from a seeded stream.
inline constexpr std::string_view kSearchSpecForms =
    "greedy, beam:K, anneal[:SEED], exhaustive[:N], random[:N[:SEED]]";

/// Parses a `--search` value; nullopt (with no side effects) on syntax or
/// range errors, or on any form outside kSearchSpecForms.
[[nodiscard]] std::optional<SearchSpec> parse_search_spec(
    const std::string& text);

/// Builds the strategy @p spec names.  @p order steers the ordered walk
/// (greedy, beam); @p trees is the exhaustive subspace.
[[nodiscard]] std::unique_ptr<SearchStrategy> make_strategy(
    const SearchSpec& spec, const std::vector<TreeId>& order = paper_order(),
    const std::vector<TreeId>& trees = high_impact_trees());

/// Runs @p strategy over @p trace: builds the SearchContext, steps the
/// strategy until it returns false and returns the assembled result.
/// Batches go to @p engine, or to a fresh make_engine(opts.num_threads)
/// when none is passed.
[[nodiscard]] ExplorationResult run_search(const TraceSource& trace,
                                           SearchStrategy& strategy,
                                           const ExplorerOptions& opts = {},
                                           EvalEngine* engine = nullptr);

}  // namespace dmm::core

#endif  // DMM_CORE_SEARCH_H
