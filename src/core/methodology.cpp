#include "dmm/core/methodology.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "dmm/alloc/policy_core.h"

namespace dmm::core {

namespace {

/// Spans of the phase annotations already in @p trace (profiler markers),
/// in one pass: each present phase id spans its first to its last event,
/// and an id with no events gets no span.
std::vector<PhaseSpan> annotated_spans(const AllocTrace& trace) {
  constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();
  std::vector<PhaseSpan> spans;
  const std::vector<AllocEvent>& events = trace.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint16_t p = events[i].phase;
    if (p >= spans.size()) spans.resize(p + 1u, PhaseSpan{0, kAbsent, 0});
    if (spans[p].first_event == kAbsent) spans[p] = {p, i, i};
    spans[p].last_event = i;
  }
  std::erase_if(spans,
                [](const PhaseSpan& s) { return s.first_event == kAbsent; });
  return spans;
}

}  // namespace

std::unique_ptr<alloc::Allocator> MethodologyResult::make_manager(
    sysmem::SystemArena& arena, bool strict_accounting) const {
  // Adapter note: this hands back the bare policy core (see
  // alloc/policy_core.h) for in-process, single-threaded use — replay
  // parity with the search's scoring replays is the contract.  For live
  // concurrent traffic, export the configs and construct a
  // runtime::DesignedAllocator instead.
  if (phase_configs.size() == 1) {
    return std::make_unique<alloc::PolicyCore>(
        arena, phase_configs[0], "custom", strict_accounting);
  }
  return std::make_unique<GlobalManager>(arena, phase_configs,
                                         "custom-global", strict_accounting);
}

// ---------------------------------------------------------------------------
// DesignRun
// ---------------------------------------------------------------------------

DesignRun::DesignRun(std::span<const AllocTrace> traces,
                     const DesignOptions& options, EvalEngine& engine)
    : options_(options), engine_(engine) {
  // Options are caller data (CLI lists, wire requests) — validate loudly
  // instead of designing against a half-read ask.
  if (traces.empty()) {
    throw std::invalid_argument("design run: no traces");
  }
  const bool is_family = traces.size() >= 2;
  const auto reject = [](const std::string& why) {
    throw std::invalid_argument("design run: " + why);
  };
  const auto usable_weight = [](double w) {
    return std::isfinite(w) && w >= 0.0;
  };
  if (!usable_weight(options.explorer_options.time_weight)) {
    reject("time_weight must be finite and non-negative");
  }
  if (is_family) {
    if (options.validate) reject("validate applies to a single trace only");
    if (options.detect_phases) {
      reject("detect_phases applies to a single trace only");
    }
    if (!options.weights.empty() && options.weights.size() != traces.size()) {
      reject(std::to_string(options.weights.size()) + " weights for " +
             std::to_string(traces.size()) + " traces");
    }
    if (!std::all_of(options.weights.begin(), options.weights.end(),
                     usable_weight)) {
      reject("weights must be finite and non-negative");
    }
  } else {
    if (!options.weights.empty()) reject("weights apply to a family only");
    if (!options.seed_candidates.empty()) {
      reject("seed candidates apply to a family only");
    }
    if (options.aggregate != FamilyAggregate::kMaxPeak) {
      reject("an aggregate applies to a family only");
    }
  }

  ExplorerOptions& opts = options_.explorer_options;
  if (is_family) {
    members_.reserve(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
      FamilyEvalMember m;
      // Aliasing, non-owning: the caller's traces outlive the run, and a
      // full case-study trace is millions of events — copying every
      // member would double the trace memory before any search work
      // starts.
      m.trace = std::shared_ptr<const AllocTrace>(
          std::shared_ptr<const AllocTrace>(), &traces[i]);
      m.fingerprint = m.trace->fingerprint();
      m.weight = options.weights.empty() ? 1.0 : options.weights[i];
      members_.push_back(std::move(m));
    }
    // No cache injected: a private run-scoped cache still lets the
    // per-trace breakdown ride the search's member replays instead of
    // re-replaying the winner on every trace (minutes each on full
    // case-study traces).
    if (opts.cache && !opts.shared_cache) {
      opts.shared_cache = std::make_shared<SharedScoreCache>();
    }
  } else {
    const AllocTrace& trace = traces[0];
    if (options.detect_phases) {
      AllocTrace working = trace;
      design_.phases = detect_phases(working, PhaseDetectorOptions{});
      apply_phases(working, design_.phases);
      sub_traces_ = split_by_phase(working);
    } else {
      design_.phases = annotated_spans(trace);
      sub_traces_ = split_by_phase(trace);
    }
    // Persisting needs one cache for the whole run: with a cache_file and
    // no injected cache, every walk and validation pass shares a
    // run-scoped one.
    if (opts.cache && !options_.cache_file.empty() && !opts.shared_cache) {
      opts.shared_cache = std::make_shared<SharedScoreCache>();
    }
  }
  open_search();
}

void DesignRun::open_search() {
  const ExplorerOptions& opts = options_.explorer_options;
  if (family()) {
    ctx_ = std::make_unique<SearchContext>(members_, options_.aggregate,
                                           opts, engine_);
    strategy_ = make_strategy(opts.search, paper_order(),
                              options_.validation_trees);
    return;
  }
  // One atomic manager per phase, explored independently (Sec. 3.3): each
  // phase's sub-trace holds the objects allocated in that phase, including
  // their (possibly later) frees.  A phase with no allocations reuses the
  // defaults.
  while (phase_ < sub_traces_.size() && sub_traces_[phase_].empty()) {
    design_.phase_configs.push_back(opts.defaults);
    design_.phase_results.emplace_back();
    if (options_.validate) design_.validation_results.emplace_back();
    ++phase_;
  }
  if (phase_ == sub_traces_.size()) {
    done_ = true;
    return;
  }
  const AllocTrace& sub = sub_traces_[phase_];
  ctx_ = std::make_unique<SearchContext>(sub, sub.fingerprint(), opts,
                                         engine_);
  if (in_validation_) {
    // Ground-truth pass over the high-impact subspace.  Runs after the
    // walk, so the walk's outcome is byte-for-byte what it would be
    // without validation; with a shared cache the two searches reuse each
    // other's replays (reported as cross-search hits).
    strategy_ = std::make_unique<ExhaustiveSearch>(options_.validation_trees);
  } else {
    // The per-phase searcher is pluggable (explorer_options.search):
    // greedy stays the default and the published flow.
    strategy_ = make_strategy(opts.search, paper_order(),
                              options_.validation_trees);
  }
}

bool DesignRun::step(std::size_t eval_budget) {
  if (done_) return false;
  if (!strategy_->step(*ctx_, eval_budget)) close_search();
  return !done_;
}

void DesignRun::complete() {
  // One load up front (not per phase — each phase has its own trace
  // fingerprint, but they all live in the one file) and one save after the
  // last search, so a repeated run replays nothing it already scored.  The
  // save is atomic and idempotent.
  const ExplorerOptions& opts = options_.explorer_options;
  const std::string& path = options_.cache_file;
  SharedScoreCache* persisted =
      opts.cache && !path.empty() ? opts.shared_cache.get() : nullptr;
  if (persisted != nullptr) (void)persisted->load(path);
  try {
    while (step(std::numeric_limits<std::size_t>::max())) {
    }
  } catch (...) {
    if (persisted != nullptr) (void)persisted->save(path);
    throw;
  }
  if (persisted != nullptr) (void)persisted->save(path);
}

void DesignRun::close_search() {
  const std::vector<alloc::DmmConfig>& seeds = options_.seed_candidates;
  if (family() && !seeds.empty()) {
    // Warm-start candidates compete *after* the search (an ordered walk's
    // final crowning would clobber anything offered before it): the family
    // best is the fold over the search's offers and every seed, in order.
    std::vector<EvalJob> jobs;
    jobs.reserve(seeds.size());
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      jobs.push_back({seeds[k], k});
    }
    for (const EvalOutcome& out : ctx_->evaluate(jobs)) {
      if (ctx_->offer_best(seeds[out.tag], out)) {
        family_.best_seed = static_cast<int>(out.tag);
      }
    }
    if (family_.best_seed >= 0) {
      // A seed displaced the search's best: the winning walk's step log
      // no longer describes `best` — clear it instead of publishing a
      // false attribution.
      ctx_->result().steps.clear();
    }
  }
  closed_.evaluations += ctx_->evaluations();
  ExplorationResult r = ctx_->finish();
  ctx_.reset();
  strategy_.reset();
  charge(r);
  closed_.has_incumbent = true;
  closed_.incumbent = r.best;
  closed_.incumbent_peak = r.best_sim.peak_footprint;
  if (family()) {
    family_.best = r.best;
    family_.feasible = r.feasible;
    family_.aggregate_objective =
        candidate_objective(options_.explorer_options, r.best_sim,
                            r.work_steps);
    family_.search = std::move(r);
    done_ = true;
    return;
  }
  if (in_validation_) {
    // Validation charges its accounting; the walk's outcome stands.
    design_.validation_results.push_back(std::move(r));
    in_validation_ = false;
    ++phase_;
  } else {
    design_.phase_configs.push_back(r.best);
    design_.phase_results.push_back(std::move(r));
    in_validation_ = options_.validate;
    if (!in_validation_) ++phase_;
  }
  open_search();
}

void DesignRun::interrupt() {
  if (ctx_ == nullptr) return;
  closed_.evaluations += ctx_->evaluations();
  charge(ctx_->finish());
  ctx_.reset();
  strategy_.reset();
  done_ = true;
}

void DesignRun::charge(const ExplorationResult& r) {
  design_.total_simulations += r.simulations;
  design_.total_cache_hits += r.cache_hits;
  design_.total_cross_search_hits += r.cross_search_hits;
  design_.total_persisted_hits += r.persisted_hits;
}

DesignProgress DesignRun::progress() const {
  DesignProgress p = closed_;
  p.phase_count = family() ? 1 : sub_traces_.size();
  p.phase = std::min(phase_, p.phase_count - 1);
  p.simulations = design_.total_simulations;
  p.cache_hits = design_.total_cache_hits;
  if (ctx_ != nullptr) {
    const ExplorationResult& r = ctx_->result();
    p.evaluations += ctx_->evaluations();
    p.simulations += r.simulations;
    p.cache_hits += r.cache_hits;
    // evals_to_best is recorded when an offer displaces the incumbent;
    // ordered walks crown only at their end.
    if (r.evals_to_best > 0) {
      p.has_incumbent = true;
      p.incumbent = r.best;
      p.incumbent_peak = r.best_sim.peak_footprint;
    }
  }
  return p;
}

MethodologyResult DesignRun::harvest() {
  interrupt();
  return std::move(design_);
}

FamilyDesignResult DesignRun::harvest_family() {
  interrupt();
  // A finished search already carries these; an interrupted one reports
  // nothing else.
  family_.search.simulations = design_.total_simulations;
  family_.search.cache_hits = design_.total_cache_hits;
  family_.search.cross_search_hits = design_.total_cross_search_hits;
  family_.search.persisted_hits = design_.total_persisted_hits;
  return std::move(family_);
}

// ---------------------------------------------------------------------------
// The step-to-completion wrappers
// ---------------------------------------------------------------------------

MethodologyResult design_manager(const AllocTrace& trace,
                                 const DesignOptions& options) {
  const std::unique_ptr<EvalEngine> engine =
      make_engine(options.explorer_options.num_threads);
  DesignRun run({&trace, 1}, options, *engine);
  run.complete();
  return run.harvest();
}

FamilyDesignResult design_manager_family(const std::vector<AllocTrace>& traces,
                                         const DesignOptions& options) {
  if (traces.size() < 2) {
    throw std::invalid_argument(
        "design_manager_family: a family needs two or more traces");
  }
  const std::unique_ptr<EvalEngine> engine =
      make_engine(options.explorer_options.num_threads);
  DesignRun run(traces, options, *engine);
  run.complete();
  FamilyDesignResult result = run.harvest_family();
  // Per-trace breakdown: the winner replayed on each member, served from
  // the member-level cache entries the search already paid for.
  const ExplorerOptions& opts = run.options().explorer_options;
  for (const AllocTrace& trace : traces) {
    FamilyTraceReport report;
    report.fingerprint = trace.fingerprint();
    std::optional<SharedScoreCache::Session> session;
    if (opts.cache) {
      session.emplace(opts.shared_cache->begin_search(report.fingerprint));
    }
    const std::vector<EvalOutcome> out = engine->evaluate(
        trace, {{result.best, 0}}, session ? &*session : nullptr);
    report.sim = out[0].sim;
    report.work_steps = out[0].work_steps;
    result.per_trace.push_back(report);
  }
  return result;
}

}  // namespace dmm::core
