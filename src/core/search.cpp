#include "dmm/core/search.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>

namespace dmm::core {

using alloc::DmmConfig;

namespace {

/// Batch size for the streaming strategies (exhaustive / random search):
/// large enough to keep a pool busy, small enough that the evaluation
/// budget is respected closely.  Deliberately independent of the engine's
/// thread count so the simulations/cache_hits accounting never varies
/// with it.
constexpr std::size_t kStreamBatch = 64;

/// Unbiased draw in [0, n) by rejection, for 0 < n < 2^32.  `rng() % n`
/// over-samples low values (2^32 is not a multiple of most n), and
/// std::uniform_int_distribution's algorithm is implementation-defined —
/// the same seed would sample different vectors on different standard
/// libraries.  This is both unbiased and reproducible everywhere.
std::size_t uniform_below(std::mt19937& rng, std::size_t n) {
  const auto bound = static_cast<std::uint32_t>(n);
  const std::uint32_t residue = (0u - bound) % bound;  // 2^32 mod bound
  for (;;) {
    const std::uint32_t v = rng();
    // Accept below the largest multiple of bound (2^32 - residue).
    if (residue == 0 || v < 0u - residue) {
      return v % bound;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// shared scoring pieces
// ---------------------------------------------------------------------------

double candidate_objective(const ExplorerOptions& opts, const SimResult& sim,
                           std::uint64_t work) {
  if (sim.failed_allocs > 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(sim.peak_footprint) +
         opts.time_weight * static_cast<double>(work);
}

bool candidate_better(double obj_a, std::uint64_t failed_a, double avg_a,
                      std::uint64_t work_a, double obj_b,
                      std::uint64_t failed_b, double avg_b,
                      std::uint64_t work_b) {
  // Infinite objectives first: the 1%-band arithmetic below is only
  // meaningful on finite peaks (inf - inf is NaN, and every comparison
  // against NaN is false — which used to drop straight through to the
  // avg-footprint tier and let an infeasible vector win ties).
  const bool finite_a = std::isfinite(obj_a);
  const bool finite_b = std::isfinite(obj_b);
  if (finite_a != finite_b) return finite_a;
  if (!finite_a) {
    // Both infeasible: rank by distance to feasibility so the reported
    // least-bad vector is deterministic and meaningful.
    if (failed_a != failed_b) return failed_a < failed_b;
  } else {
    const double tol = 0.01 * std::min(obj_a, obj_b);
    if (std::abs(obj_a - obj_b) > tol) return obj_a < obj_b;
  }
  const double avg_tol = 0.01 * std::min(avg_a, avg_b);
  if (std::abs(avg_a - avg_b) > avg_tol) return avg_a < avg_b;
  return work_a < work_b;
}

bool BestTracker::offer(const ExplorerOptions& opts, const EvalOutcome& out) {
  const double o = candidate_objective(opts, out.sim, out.work_steps);
  if (any && !candidate_better(o, out.sim.failed_allocs,
                               out.sim.avg_footprint, out.work_steps, obj,
                               failed, avg, work)) {
    return false;
  }
  obj = o;
  failed = out.sim.failed_allocs;
  avg = out.sim.avg_footprint;
  work = out.work_steps;
  any = true;
  return true;
}

// ---------------------------------------------------------------------------
// SearchContext
// ---------------------------------------------------------------------------

SearchContext::CacheBinding::CacheBinding(const ExplorerOptions& opts,
                                          std::uint64_t trace_fingerprint) {
  if (!opts.cache) return;
  SharedScoreCache* store = opts.shared_cache.get();
  if (store == nullptr) {
    // One session on a private single-shard cache: the per-search memo,
    // whose hits are all this search's own (never cross-search).
    own = std::make_unique<SharedScoreCache>(1);
    store = own.get();
  }
  session.emplace(store->begin_search(trace_fingerprint));
}

SearchContext::SearchContext(const TraceSource& trace,
                             std::uint64_t trace_fingerprint,
                             const ExplorerOptions& opts, EvalEngine& engine)
    : trace_(&trace),
      opts_(opts),
      engine_(engine),
      cache_(opts, trace_fingerprint) {}

SearchContext::SearchContext(std::vector<FamilyEvalMember> family,
                             FamilyAggregate aggregate,
                             const ExplorerOptions& opts, EvalEngine& engine)
    : family_(std::move(family)),
      aggregate_(aggregate),
      opts_(opts),
      engine_(engine),
      // The aggregate-level binding: folded family scores cached under the
      // trace-set fingerprint, next to (never colliding with) the
      // per-member entries.
      cache_(opts, family_fingerprint(family_, aggregate)) {
  member_caches_.reserve(family_.size());
  for (const FamilyEvalMember& m : family_) {
    member_caches_.push_back(
        std::make_unique<CacheBinding>(opts, m.fingerprint));
  }
}

SearchContext::~SearchContext() { engine_.settle_hints(); }

void SearchContext::hint(const EvalJob& job) {
  if (speculating()) engine_.hint(*trace_, job, cache_.ptr());
}

void SearchContext::account(const EvalOutcome& out) {
  if (out.from_cache) {
    ++result_.cache_hits;
  } else {
    ++result_.simulations;
  }
}

void SearchContext::submit(const EvalJob& job) {
  if (trace_ == nullptr) {
    // Family mode: member scoring folds whole batches — buffer for drain().
    stream_pending_.push_back(job);
    return;
  }
  if (!stream_open_) {
    engine_.stream_begin(*trace_, cache_.ptr());
    stream_open_ = true;
  }
  engine_.stream_submit(job);
}

std::vector<EvalOutcome> SearchContext::drain() {
  if (trace_ == nullptr) {
    std::vector<EvalJob> jobs = std::move(stream_pending_);
    stream_pending_.clear();
    if (jobs.empty()) return {};
    return evaluate_family(jobs);
  }
  if (!stream_open_) return {};
  std::vector<EvalOutcome> outcomes = engine_.stream_drain();
  for (const EvalOutcome& out : outcomes) account(out);
  charged_ += outcomes.size();
  stream_open_ = false;
  return outcomes;
}

std::vector<EvalOutcome> SearchContext::evaluate(
    const std::vector<EvalJob>& jobs) {
  for (const EvalJob& job : jobs) submit(job);
  return drain();
}

std::vector<EvalOutcome> SearchContext::evaluate_family(
    const std::vector<EvalJob>& jobs) {
  std::vector<EvalOutcome> outcomes(jobs.size());
  // Aggregate-level cache pass: a hit skips every member evaluation and
  // counts one cache hit; misses are collected (by canonical form, the
  // same one the member engines will use) for member scoring.
  std::vector<alloc::DmmConfig> canon;
  canon.reserve(jobs.size());
  for (const EvalJob& job : jobs) canon.push_back(alloc::canonical(job.cfg));
  std::vector<std::size_t> miss;
  std::vector<EvalJob> miss_jobs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SharedScoreCache::Entry hit;
    if (cache_.session && cache_.session->lookup_canonical(canon[i], &hit)) {
      outcomes[i].tag = jobs[i].tag;
      outcomes[i].sim = hit.sim;
      outcomes[i].work_steps = hit.work_steps;
      outcomes[i].from_cache = true;
      // A whole-candidate hit, counted apart from cache_hits: that counter
      // stays in per-member units, this one in candidates.
      ++result_.family_hits;
      continue;
    }
    miss_jobs.push_back({canon[i], miss.size()});
    miss.push_back(i);
  }
  if (!miss.empty()) {
    // Score the misses on every member — each member batch goes through
    // that member's own cache binding, so family replays land in (and are
    // served from) the same per-trace entries single-trace searches use.
    std::vector<std::vector<EvalOutcome>> per_member;
    per_member.reserve(family_.size());
    for (std::size_t m = 0; m < family_.size(); ++m) {
      per_member.push_back(engine_.evaluate(*family_[m].trace, miss_jobs,
                                            member_caches_[m]->ptr()));
      for (const EvalOutcome& out : per_member.back()) account(out);
    }
    std::vector<EvalOutcome> member_slice(family_.size());
    for (std::size_t k = 0; k < miss.size(); ++k) {
      for (std::size_t m = 0; m < family_.size(); ++m) {
        member_slice[m] = per_member[m][k];
      }
      const EvalOutcome agg = aggregate_family(jobs[miss[k]].tag,
                                               member_slice, family_,
                                               aggregate_);
      if (cache_.session) {
        cache_.session->insert_canonical(canon[miss[k]],
                                         {agg.sim, agg.work_steps});
      }
      outcomes[miss[k]] = agg;
    }
  }
  charged_ += jobs.size();
  return outcomes;
}

bool SearchContext::offer_best(const DmmConfig& cfg, const EvalOutcome& out) {
  if (!tracker_.offer(opts_, out)) return false;
  result_.best = cfg;
  result_.best_sim = out.sim;
  result_.work_steps = out.work_steps;
  result_.evals_to_best = evaluations();
  return true;
}

ExplorationResult SearchContext::finish() {
  engine_.settle_hints();
  result_.feasible = tracker_.feasible();
  result_.cross_search_hits =
      cache_.session ? cache_.session->cross_search_hits() : 0;
  result_.persisted_hits =
      cache_.session ? cache_.session->persisted_hits() : 0;
  // Family mode: the member sessions served hits of their own.
  for (const std::unique_ptr<CacheBinding>& member : member_caches_) {
    if (member->session) {
      result_.cross_search_hits += member->session->cross_search_hits();
      result_.persisted_hits += member->session->persisted_hits();
    }
  }
  return std::move(result_);
}

// ---------------------------------------------------------------------------
// BeamSearch — the ordered traversal of Sec. 4.2, k partial vectors wide
// ---------------------------------------------------------------------------

namespace {

/// Lookahead along the greedy walk: hints the candidates the walk will
/// submit at steps after @p step if every step from @p step on keeps its
/// incumbent leaf — the leaf the repaired current vector already has,
/// which on the case studies wins nearly every step.  The incumbent
/// candidate itself is skipped: it repeats the previous step's winning
/// completion, a cache hit.  Steps are hinted nearest first, the order
/// workers take them in.
void hint_lookahead(SearchContext& ctx, const std::vector<TreeId>& order,
                    std::size_t step, DmmConfig cfg, DecidedMask decided) {
  for (std::size_t k = step; k < order.size(); ++k) {
    const TreeId tree = order[k];
    const int incumbent = get_leaf(Constraints::repair(cfg, decided), tree);
    if (!Constraints::admissible(cfg, decided, tree, incumbent)) {
      return;  // the prediction cannot hold from here on
    }
    if (k > step) {
      for (int leaf = 0; leaf < leaf_count(tree); ++leaf) {
        if (leaf == incumbent ||
            !Constraints::admissible(cfg, decided, tree, leaf)) {
          continue;
        }
        DmmConfig probe = cfg;
        set_leaf(probe, tree, leaf);
        DecidedMask probe_decided = decided;
        probe_decided[static_cast<std::size_t>(tree)] = true;
        ctx.hint({Constraints::repair(probe, probe_decided),
                  static_cast<std::uint64_t>(leaf)});
      }
    }
    set_leaf(cfg, tree, incumbent);
    decided[static_cast<std::size_t>(tree)] = true;
  }
}

}  // namespace

BeamSearch::BeamSearch(std::size_t width, std::vector<TreeId> order)
    : width_(width == 0 ? 1 : width), order_(std::move(order)) {}

std::string BeamSearch::name() const {
  return width_ == 1 ? "greedy" : "beam:" + std::to_string(width_);
}

bool BeamSearch::step(SearchContext& ctx, std::size_t /*eval_budget*/) {
  const ExplorerOptions& opts = ctx.options();

  // One surviving partial vector.  All beams decide the same trees in the
  // same order, so the decided mask is shared per step and two beams are
  // equal iff their cfgs are — and since every child extends a *distinct*
  // parent with one more leaf, children are automatically distinct too.
  struct Beam {
    DmmConfig cfg{};
    std::vector<StepLog> steps;
  };
  std::vector<Beam> beams(1);
  beams[0].cfg = opts.defaults;
  DecidedMask decided{};

  for (std::size_t step_index = 0; step_index < order_.size(); ++step_index) {
    const TreeId tree = order_[step_index];
    // Expand every beam (in rank order) by every admissible leaf; one
    // stream scores them all.
    struct Expansion {
      std::size_t beam = 0;
      int leaf = -1;
      DmmConfig child{};
    };
    std::vector<Expansion> expansions;
    std::vector<StepLog> beam_steps(beams.size());
    for (std::size_t b = 0; b < beams.size(); ++b) {
      StepLog& step = beam_steps[b];
      step.tree = tree;
      for (int leaf = 0; leaf < leaf_count(tree); ++leaf) {
        CandidateScore cand;
        cand.leaf = leaf;
        cand.admissible =
            Constraints::admissible(beams[b].cfg, decided, tree, leaf);
        if (cand.admissible) {
          DmmConfig child = beams[b].cfg;
          set_leaf(child, tree, leaf);
          DecidedMask probe_decided = decided;
          probe_decided[static_cast<std::size_t>(tree)] = true;
          // The child *is* the probe before repair: the partial vector
          // with this leaf committed.  Submit-as-generated: worker threads
          // replay early candidates while the walk is still repairing
          // later ones, and drain() returns submit order, matching tags.
          ctx.submit({Constraints::repair(child, probe_decided),
                      expansions.size()});
          expansions.push_back({b, leaf, child});
        }
        step.candidates.push_back(cand);
      }
    }
    if (width_ == 1 && ctx.speculating()) {
      // While this step's replays run, idle workers replay the walk's
      // likely later candidates.  Hints made at earlier steps assumed an
      // outcome this step may not have had, so unstarted ones go first.
      // Wider beams do not hint: on served traffic (beam:4 beside greedy
      // and anneal on a 2-worker pool) hinting their lead beam made them
      // no faster.
      ctx.drop_hints();
      hint_lookahead(ctx, order_, step_index, beams[0].cfg, decided);
    }
    const std::vector<EvalOutcome> outcomes = ctx.drain();
    std::vector<const EvalOutcome*> scored(expansions.size(), nullptr);
    for (const EvalOutcome& out : outcomes) {
      const Expansion& e = expansions[out.tag];
      CandidateScore& cand = beam_steps[e.beam].candidates[e.leaf];
      cand.peak_footprint = out.sim.peak_footprint;
      cand.avg_footprint = out.sim.avg_footprint;
      cand.work_steps = out.work_steps;
      cand.failed_allocs = out.sim.failed_allocs;
      scored[out.tag] = &out;
    }

    // Rank by repeated left-fold extraction: winner #1 is exactly the
    // greedy choice, winner #2 the fold's best over what remains, and so
    // on.  (candidate_better's 1%-tie band is not a strict weak ordering,
    // so a comparison sort would be UB — the fold never needs one.)
    std::vector<std::size_t> ranked;
    std::vector<bool> taken(expansions.size(), false);
    while (ranked.size() < width_) {
      BestTracker fold;
      std::size_t win = expansions.size();
      for (std::size_t i = 0; i < expansions.size(); ++i) {
        if (taken[i] || scored[i] == nullptr) continue;
        if (fold.offer(opts, *scored[i])) win = i;
      }
      if (win == expansions.size()) break;
      taken[win] = true;
      ranked.push_back(win);
    }

    std::vector<Beam> next;
    next.reserve(ranked.size());
    for (std::size_t idx : ranked) {
      const Expansion& e = expansions[idx];
      Beam child;
      child.cfg = e.child;
      child.steps = beams[e.beam].steps;
      StepLog step = beam_steps[e.beam];
      step.chosen = e.leaf;
      child.steps.push_back(std::move(step));
      next.push_back(std::move(child));
    }
    if (next.empty()) {
      // No admissible leaf on any beam: keep each beam's default leaf
      // (cannot happen with a coherent rule set; guarded for robustness).
      for (std::size_t b = 0; b < beams.size(); ++b) {
        StepLog step = std::move(beam_steps[b]);
        step.chosen = get_leaf(beams[b].cfg, tree);
        beams[b].steps.push_back(std::move(step));
      }
      next = std::move(beams);
    }
    beams = std::move(next);
    decided[static_cast<std::size_t>(tree)] = true;
  }

  // Final pass: score every surviving beam's repaired completion in rank
  // order and crown the fold winner.  With width 1 this is the greedy
  // walk's single final evaluation.
  std::vector<EvalJob> final_jobs;
  final_jobs.reserve(beams.size());
  std::vector<DmmConfig> final_cfgs;
  final_cfgs.reserve(beams.size());
  for (std::size_t b = 0; b < beams.size(); ++b) {
    final_cfgs.push_back(Constraints::repair(beams[b].cfg, decided));
    final_jobs.push_back({final_cfgs.back(), b});
  }
  std::size_t winner = 0;
  for (const EvalOutcome& out : ctx.evaluate(final_jobs)) {
    if (ctx.offer_best(final_cfgs[out.tag], out)) winner = out.tag;
  }
  if (!beams.empty()) {
    ctx.result().steps = std::move(beams[winner].steps);
  }
  return false;
}

// ---------------------------------------------------------------------------
// ExhaustiveSearch — odometer over a tree subspace
// ---------------------------------------------------------------------------

ExhaustiveSearch::ExhaustiveSearch(std::vector<TreeId> trees,
                                   std::size_t max_evals)
    : trees_(std::move(trees)), max_evals_(max_evals) {}

bool ExhaustiveSearch::step(SearchContext& ctx, std::size_t eval_budget) {
  const ExplorerOptions& opts = ctx.options();
  if (ctx.first_step()) {
    done_ = false;
    leaf_.assign(trees_.size(), 0);
  }
  DecidedMask decided{};
  for (TreeId t : trees_) decided[static_cast<std::size_t>(t)] = true;

  // This turn's slice: the caller's budget capped at our own remainder.
  const std::uint64_t budget =
      std::min<std::uint64_t>(eval_budget, max_evals_ - ctx.evaluations());
  std::uint64_t stepped = 0;
  while (!done_ && stepped < budget) {
    // Collect the next window of coherent vectors, then score it as one
    // batch.
    std::vector<EvalJob> jobs;
    while (!done_ && jobs.size() < kStreamBatch &&
           stepped + jobs.size() < budget) {
      DmmConfig cfg = opts.defaults;
      for (std::size_t i = 0; i < trees_.size(); ++i) {
        set_leaf(cfg, trees_[i], leaf_[i]);
      }
      cfg = Constraints::repair(cfg, decided);
      if (alloc::is_valid(cfg)) jobs.push_back({cfg, jobs.size()});
      // odometer increment
      std::size_t pos = 0;
      for (;;) {
        if (pos == trees_.size()) {
          done_ = true;
          break;
        }
        if (++leaf_[pos] < leaf_count(trees_[pos])) break;
        leaf_[pos] = 0;
        ++pos;
      }
    }
    stepped += jobs.size();
    for (const EvalOutcome& out : ctx.evaluate(jobs)) {
      (void)ctx.offer_best(jobs[out.tag].cfg, out);
    }
  }
  return !done_ && ctx.evaluations() < max_evals_;
}

// ---------------------------------------------------------------------------
// RandomSearch — uniform sampling of the coherent space
// ---------------------------------------------------------------------------

RandomSearch::RandomSearch(std::size_t samples, unsigned seed)
    : samples_(samples), seed_(seed) {}

bool RandomSearch::step(SearchContext& ctx, std::size_t eval_budget) {
  const ExplorerOptions& opts = ctx.options();
  if (ctx.first_step()) rng_.seed(seed_);
  const std::vector<DmmConfig>& space = coherent_space();
  // Budget = number of *evaluations* (replays + cache hits), matching the
  // ordered traversal's accounting; every draw is coherent and charged.
  const std::uint64_t budget =
      std::min<std::uint64_t>(eval_budget, samples_ - ctx.evaluations());
  std::uint64_t stepped = 0;
  while (stepped < budget) {
    std::vector<EvalJob> jobs;
    while (stepped + jobs.size() < budget && jobs.size() < kStreamBatch) {
      const DmmConfig& drawn = space[uniform_below(rng_, space.size())];
      DmmConfig cfg = opts.defaults;
      for (TreeId t : all_trees()) set_leaf(cfg, t, get_leaf(drawn, t));
      jobs.push_back({cfg, jobs.size()});
    }
    stepped += jobs.size();
    for (const EvalOutcome& out : ctx.evaluate(jobs)) {
      (void)ctx.offer_best(jobs[out.tag].cfg, out);
    }
  }
  return ctx.evaluations() < samples_;
}

// ---------------------------------------------------------------------------
// AnnealingSearch — deterministic SA over the coherent space
// ---------------------------------------------------------------------------

namespace {

/// The geometric cooling schedule: T0 as a fraction of the start energy,
/// the factor applied per cooling step, and the evaluated proposals
/// between coolings.
constexpr double kInitialTemp = 0.10;
constexpr double kCooling = 0.95;
constexpr std::size_t kMovesPerTemp = 8;

/// Scalar energy SA minimises: the shared candidate objective for
/// feasible vectors; infeasible ones sit beyond every feasible energy,
/// ordered by how far from feasibility they are.
double anneal_energy(const ExplorerOptions& opts, const EvalOutcome& out) {
  const double obj = candidate_objective(opts, out.sim, out.work_steps);
  if (std::isfinite(obj)) return obj;
  return 1e30 + 1e24 * static_cast<double>(out.sim.failed_allocs);
}

}  // namespace

AnnealingSearch::AnnealingSearch(std::size_t max_evals, unsigned seed)
    : max_evals_(max_evals), seed_(seed) {}

bool AnnealingSearch::step(SearchContext& ctx, std::size_t eval_budget) {
  const ExplorerOptions& opts = ctx.options();
  std::uint64_t stepped = 0;
  if (ctx.first_step()) {
    frozen_ = false;
    rng_.seed(seed_);
    since_cool_ = 0;

    // Start state: the repaired defaults — with nothing decided, repair()
    // completes them into a valid vector — canonicalized.
    const DecidedMask none{};
    state_ = alloc::canonical(Constraints::repair(opts.defaults, none));
    const std::vector<EvalOutcome> out = ctx.evaluate({{state_, 0}});
    (void)ctx.offer_best(state_, out[0]);
    energy_ = anneal_energy(opts, out[0]);
    temp_ = kInitialTemp * std::max(1.0, energy_);
    ++stepped;
  }

  while (!frozen_ && ctx.evaluations() < max_evals_ &&
         stepped < eval_budget) {
    // Propose: mutate one tree to a different leaf, let repair() nudge
    // only the trees a violated rule drags along (the mutated tree alone
    // counts as decided, so e.g. flipping A5 pulls its schedules with it
    // instead of dying on the A5<->E2/D2 coherence rules), then
    // canonicalize the numeric knobs.  repair() keeps the mutated leaf, so
    // a coherent proposal always differs from the state.
    DmmConfig next{};
    bool found = false;
    for (int attempt = 0; attempt < 256 && !found; ++attempt) {
      DmmConfig probe = state_;
      const TreeId tree = all_trees()[uniform_below(rng_, kTreeCount)];
      const auto n = static_cast<std::size_t>(leaf_count(tree));
      const auto cur = static_cast<std::size_t>(get_leaf(probe, tree));
      set_leaf(probe, tree,
               static_cast<int>((cur + 1 + uniform_below(rng_, n - 1)) % n));
      DecidedMask mutated{};
      mutated[static_cast<std::size_t>(tree)] = true;
      probe = Constraints::repair(probe, mutated);
      if (!alloc::is_valid(probe)) continue;
      next = alloc::canonical(probe);
      found = true;
    }
    if (!found) {
      frozen_ = true;  // no admissible neighbour in 256 draws
      break;
    }

    const std::vector<EvalOutcome> out = ctx.evaluate({{next, 0}});
    (void)ctx.offer_best(next, out[0]);
    ++stepped;
    const double next_energy = anneal_energy(opts, out[0]);
    const double delta = next_energy - energy_;
    bool accept = delta <= 0.0;
    if (!accept && temp_ > 0.0) {
      // Portable uniform in [0,1): mt19937's output sequence is fully
      // specified, so the trajectory is identical on every stdlib.
      const double u = std::ldexp(static_cast<double>(rng_()), -32);
      accept = u < std::exp(-delta / temp_);
    }
    if (accept) {
      state_ = next;
      energy_ = next_energy;
    }
    if (++since_cool_ >= kMovesPerTemp) {
      since_cool_ = 0;
      temp_ *= kCooling;
    }
  }
  return !frozen_ && ctx.evaluations() < max_evals_;
}

// ---------------------------------------------------------------------------
// strategy selection
// ---------------------------------------------------------------------------

const std::vector<TreeId>& high_impact_trees() {
  static const std::vector<TreeId> kTrees = {TreeId::kA2, TreeId::kA5,
                                             TreeId::kE2, TreeId::kD2,
                                             TreeId::kB4, TreeId::kC1};
  return kTrees;
}

/// Parses a whole non-negative number; nullopt on any other input,
/// including values strtoull would clamp (a seed of 2^64 must be a
/// rejected spec, not a silently different one).
std::optional<std::uint64_t> parse_number(const std::string& s) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  errno = 0;
  const std::uint64_t value = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) return std::nullopt;
  return value;
}

namespace {

/// A seed must round-trip through the `unsigned` the searchers take —
/// truncating would hand two distinct seeds the same trajectory.
std::optional<unsigned> parse_seed(const std::string& s) {
  const auto value = parse_number(s);
  if (!value || *value > std::numeric_limits<unsigned>::max()) {
    return std::nullopt;
  }
  return static_cast<unsigned>(*value);
}

}  // namespace

std::optional<SearchSpec> parse_search_spec(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t colon = text.find(':', begin);
    parts.push_back(text.substr(begin, colon - begin));
    if (colon == std::string::npos) break;
    begin = colon + 1;
  }
  using Kind = SearchSpec::Kind;
  if (parts[0] == "greedy") {
    if (parts.size() != 1) return std::nullopt;
    return SearchSpec{.kind = Kind::kBeam};
  }
  if (parts[0] == "beam") {
    if (parts.size() != 2) return std::nullopt;
    const auto width = parse_number(parts[1]);
    if (!width || *width == 0) return std::nullopt;
    return SearchSpec{.kind = Kind::kBeam,
                      .width = static_cast<std::size_t>(*width)};
  }
  if (parts[0] == "anneal") {
    if (parts.size() > 2) return std::nullopt;
    SearchSpec spec{.kind = Kind::kAnneal};
    if (parts.size() == 2) {
      const auto seed = parse_seed(parts[1]);
      if (!seed) return std::nullopt;
      spec.seed = *seed;
    }
    return spec;
  }
  if (parts[0] == "exhaustive") {
    if (parts.size() > 2) return std::nullopt;
    SearchSpec spec{.kind = Kind::kExhaustive};
    if (parts.size() == 2) {
      const auto budget = parse_number(parts[1]);
      if (!budget || *budget == 0 ||
          *budget > std::numeric_limits<std::size_t>::max()) {
        return std::nullopt;
      }
      spec.budget = static_cast<std::size_t>(*budget);
    }
    return spec;
  }
  if (parts[0] == "random") {
    if (parts.size() > 3) return std::nullopt;
    SearchSpec spec{.kind = Kind::kRandom};
    if (parts.size() >= 2) {
      const auto n = parse_number(parts[1]);
      if (!n || *n == 0) return std::nullopt;
      spec.budget = static_cast<std::size_t>(*n);
    }
    if (parts.size() == 3) {
      const auto seed = parse_seed(parts[2]);
      if (!seed) return std::nullopt;
      spec.seed = *seed;
    }
    return spec;
  }
  return std::nullopt;
}

std::size_t SearchSpec::eval_budget() const {
  if (budget != 0) return budget;
  switch (kind) {
    case Kind::kAnneal:
      return 400;
    case Kind::kExhaustive:
      return 100000;
    case Kind::kBeam:
    case Kind::kRandom:
      break;
  }
  return 200;
}

std::unique_ptr<SearchStrategy> make_strategy(const SearchSpec& spec,
                                              const std::vector<TreeId>& order,
                                              const std::vector<TreeId>& trees) {
  switch (spec.kind) {
    case SearchSpec::Kind::kAnneal:
      return std::make_unique<AnnealingSearch>(spec.eval_budget(), spec.seed);
    case SearchSpec::Kind::kExhaustive:
      return std::make_unique<ExhaustiveSearch>(trees, spec.eval_budget());
    case SearchSpec::Kind::kRandom:
      return std::make_unique<RandomSearch>(spec.eval_budget(), spec.seed);
    case SearchSpec::Kind::kBeam:
      break;
  }
  return std::make_unique<BeamSearch>(spec.width, order);
}

ExplorationResult run_search(const TraceSource& trace,
                             SearchStrategy& strategy,
                             const ExplorerOptions& opts, EvalEngine* engine) {
  std::unique_ptr<EvalEngine> own;
  if (engine == nullptr) {
    own = make_engine(opts.num_threads);
    engine = own.get();
  }
  SearchContext ctx(trace, trace.fingerprint(), opts, *engine);
  while (strategy.step(ctx, std::numeric_limits<std::size_t>::max())) {
  }
  return ctx.finish();
}

}  // namespace dmm::core
