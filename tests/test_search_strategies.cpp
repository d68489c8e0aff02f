// The SearchStrategy seam (src/core/search.h):
//  * the greedy walk (BeamSearch(1)), Exhaustive- and RandomSearch run
//    through run_search() — golden logs captured before the strategy seam
//    existed pin them bit for bit,
//  * beam width >= 2 escapes the Fig. 4 ordering trap (myopic defaults +
//    A3-first order) that greedy falls into,
//  * every strategy is bit-identical across 1/2/4/8 threads and across
//    per-search / shared / persisted cache scopes (only the replay/hit
//    split may shift),
//  * AnnealingSearch is deterministic for a fixed seed,
//  * a finished streaming strategy runs its search again from the start,
//    and a search dealt in slices resumes where it stopped,
//  * random:N draws from the coherent space and makes exactly N
//    evaluations,
//  * the B2/B3 single-pool alias audit: B3 collapses in canonical() where
//    the manager provably never reads it, B2 must stay distinct because
//    the linked-list pool lookup charges work the array lookup does not,
//  * a strategy that throws mid-run still persists the score cache,
//  * the greedy walk's lookahead hints are adopted on a DRR cut without
//    moving any result or count, and a width-2 beam on the same pool
//    hints nothing.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmm/core/search.h"
#include "dmm/workloads/workload.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;

AllocTrace variable_size_trace(std::size_t events, unsigned seed = 3) {
  AllocTrace t;
  std::mt19937 rng(seed);
  std::vector<std::uint32_t> live;
  std::uint32_t next_id = 0;
  while (t.size() < events) {
    if (live.empty() || rng() % 3 != 0) {
      const std::uint32_t sizes[] = {40, 120, 576, 900, 1500, 2048, 7000};
      t.record_alloc(next_id, sizes[rng() % 7] + rng() % 64);
      live.push_back(next_id++);
    } else {
      const std::size_t i = rng() % live.size();
      t.record_free(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  t.close_leaks();
  return t;
}

std::string steps_to_string(const ExplorationResult& r) {
  std::string out;
  for (const StepLog& s : r.steps) {
    out += tree_id(s.tree) + ":" + std::to_string(s.chosen) + " ";
  }
  return out;
}

/// Full bit-compare of two search results (the wall-clock field of
/// best_sim is measured, not replayed, so it is excluded by comparing
/// the deterministic fields explicitly).
void expect_identical(const ExplorationResult& a, const ExplorationResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.best, b.best) << what;
  EXPECT_EQ(a.best_sim.peak_footprint, b.best_sim.peak_footprint) << what;
  EXPECT_EQ(a.best_sim.final_footprint, b.best_sim.final_footprint) << what;
  EXPECT_DOUBLE_EQ(a.best_sim.avg_footprint, b.best_sim.avg_footprint) << what;
  EXPECT_EQ(a.best_sim.failed_allocs, b.best_sim.failed_allocs) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.work_steps, b.work_steps) << what;
  EXPECT_EQ(a.evals_to_best, b.evals_to_best) << what;
  ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].tree, b.steps[i].tree) << what << " step " << i;
    EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen) << what << " step " << i;
    ASSERT_EQ(a.steps[i].candidates.size(), b.steps[i].candidates.size())
        << what << " step " << i;
    for (std::size_t c = 0; c < a.steps[i].candidates.size(); ++c) {
      const CandidateScore& ca = a.steps[i].candidates[c];
      const CandidateScore& cb = b.steps[i].candidates[c];
      EXPECT_EQ(ca.leaf, cb.leaf) << what;
      EXPECT_EQ(ca.admissible, cb.admissible) << what;
      EXPECT_EQ(ca.peak_footprint, cb.peak_footprint) << what;
      EXPECT_DOUBLE_EQ(ca.avg_footprint, cb.avg_footprint) << what;
      EXPECT_EQ(ca.work_steps, cb.work_steps) << what;
      EXPECT_EQ(ca.failed_allocs, cb.failed_allocs) << what;
    }
  }
}

/// ... including the accounting split (replays vs hits).
void expect_identical_with_accounting(const ExplorationResult& a,
                                      const ExplorationResult& b,
                                      const std::string& what) {
  expect_identical(a, b, what);
  EXPECT_EQ(a.simulations, b.simulations) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
}

class SearchStrategies : public ::testing::Test {
 protected:
  SearchStrategies() : trace_(variable_size_trace(4000)) {}
  AllocTrace trace_;
};

// ---------------------------------------------------------------------------
// Golden parity: the strategies must reproduce the pre-refactor search
// results bit for bit.  These constants were captured from the monolithic
// explorer.cpp (PR 3 state + the B3 canonical collapse) on this exact
// trace; any drift here is a behaviour change, not a refactor.
// ---------------------------------------------------------------------------

TEST_F(SearchStrategies, GoldenExplorePaperOrder) {
  BeamSearch greedy(1, paper_order());
  const ExplorationResult r = run_search(trace_, greedy);
  EXPECT_EQ(alloc::signature(r.best),
            "A1=dll A2=many A3=header+footer A4=size+status A5=split+coalesce "
            "B1=single-pool B2=array B3=one B4=grow+shrink C1=best-fit "
            "C2=fifo D1=not-fixed D2=always E1=not-fixed E2=always");
  EXPECT_EQ(r.best_sim.peak_footprint, 2457600u);
  EXPECT_DOUBLE_EQ(r.best_sim.avg_footprint, 1402580.5393087734);
  EXPECT_EQ(r.best_sim.failed_allocs, 0u);
  EXPECT_EQ(r.work_steps, 151322u);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.simulations, 20u);
  EXPECT_EQ(r.cache_hits, 15u);
  EXPECT_EQ(steps_to_string(r),
            "A2:1 A5:3 E2:2 D2:2 E1:0 D1:0 B4:2 B1:0 B2:0 B3:0 C1:2 C2:1 "
            "A1:1 A3:3 A4:3 ");
}

TEST_F(SearchStrategies, GoldenExploreFig4Order) {
  BeamSearch greedy(1, fig4_wrong_order());
  const ExplorationResult r = run_search(trace_, greedy);
  EXPECT_EQ(alloc::signature(r.best),
            "A1=dll A2=many A3=header A4=size+status A5=split+coalesce "
            "B1=single-pool B2=array B3=one B4=grow-only C1=best-fit "
            "C2=lifo D1=not-fixed D2=deferred E1=not-fixed E2=always");
  EXPECT_EQ(r.best_sim.peak_footprint, 2441216u);
  EXPECT_EQ(r.work_steps, 204045u);
  EXPECT_EQ(r.simulations, 25u);
  EXPECT_EQ(r.cache_hits, 14u);
  EXPECT_EQ(steps_to_string(r),
            "A3:1 A4:3 A2:1 A5:3 E2:2 D2:1 E1:0 D1:0 B4:1 B1:0 B2:0 B3:0 "
            "C1:2 C2:0 A1:1 ");
}

TEST_F(SearchStrategies, GoldenExhaustiveSubspace) {
  ExhaustiveSearch exhaustive(high_impact_trees());
  const ExplorationResult r = run_search(trace_, exhaustive);
  EXPECT_EQ(alloc::signature(r.best),
            "A1=dll A2=many A3=header+footer A4=size+status A5=split+coalesce "
            "B1=single-pool B2=array B3=one B4=grow+shrink C1=best-fit "
            "C2=lifo D1=not-fixed D2=always E1=not-fixed E2=always");
  EXPECT_EQ(r.best_sim.peak_footprint, 2473984u);
  EXPECT_EQ(r.work_steps, 145426u);
  EXPECT_EQ(r.simulations, 270u);
  EXPECT_EQ(r.cache_hits, 0u);
  EXPECT_TRUE(r.steps.empty());
}

TEST_F(SearchStrategies, GoldenRandomSearch) {
  // Every draw is a coherent vector, so all 60 samples are scored.
  RandomSearch sampler(60, 7);
  const ExplorationResult r = run_search(trace_, sampler);
  EXPECT_EQ(alloc::signature(r.best),
            "A1=dll A2=many A3=header+footer A4=size A5=split-only "
            "B1=per-size-class B2=array B3=static-many B4=grow+shrink "
            "C1=exact-fit C2=fifo D1=not-fixed D2=never E1=not-fixed "
            "E2=deferred");
  EXPECT_EQ(r.best_sim.peak_footprint, 2588672u);
  EXPECT_EQ(r.work_steps, 4347u);
  EXPECT_EQ(r.simulations, 60u);
  EXPECT_EQ(r.cache_hits, 0u);
}

TEST(RandomSearchBudget, RandomNMakesExactlyNEvaluations) {
  // Every draw is a coherent vector, so nothing is rejected and nothing
  // caps the stream: random:N is charged N evaluations for any N.  The
  // engine's thread count and 7-evaluation slices move nothing.
  AllocTrace cut = workloads::record_trace(workloads::case_study("drr"), 1);
  cut.truncate(1000);
  const std::unique_ptr<EvalEngine> serial_engine = make_engine(1);
  const std::unique_ptr<EvalEngine> pooled_engine = make_engine(4);
  for (const char* text :
       {"random:1:42", "random:2:42", "random:3:42", "random:148:42"}) {
    const auto spec = parse_search_spec(text);
    ASSERT_TRUE(spec.has_value()) << text;
    const ExplorationResult serial =
        run_search(cut, *make_strategy(*spec), {}, serial_engine.get());
    EXPECT_EQ(serial.simulations + serial.cache_hits, spec->eval_budget())
        << text;
    expect_identical_with_accounting(
        run_search(cut, *make_strategy(*spec), {}, pooled_engine.get()),
        serial, std::string(text) + " at 4 threads");

    const std::unique_ptr<SearchStrategy> strategy = make_strategy(*spec);
    const ExplorerOptions opts;
    SearchContext ctx(cut, cut.fingerprint(), opts, *serial_engine);
    while (strategy->step(ctx, 7)) {
    }
    const ExplorationResult sliced = ctx.finish();
    EXPECT_EQ(sliced.best, serial.best) << text;
    EXPECT_EQ(sliced.best_sim.peak_footprint, serial.best_sim.peak_footprint)
        << text;
    EXPECT_EQ(sliced.simulations, serial.simulations) << text;
    EXPECT_EQ(sliced.cache_hits, serial.cache_hits) << text;
  }
}

// ---------------------------------------------------------------------------
// BeamSearch
// ---------------------------------------------------------------------------

TEST_F(SearchStrategies, BeamEscapesFig4OrderingTrap) {
  // The ablation's myopic designer: minimal-capability defaults mean each
  // tree is judged by local cost alone, so under the Fig. 4 wrong order
  // the greedy walk picks A3=none (0 header bytes) and propagation locks
  // split/coalesce to `never` — the trap of the paper's figure.  A beam
  // of width >= 2 keeps a header-carrying alternative alive until its
  // downstream payoff is visible and must land strictly below the trap.
  ExplorerOptions myopic;
  myopic.defaults = alloc::minimal_config();
  BeamSearch walk(1, fig4_wrong_order());
  const ExplorationResult greedy = run_search(trace_, walk, myopic);
  EXPECT_EQ(greedy.best.block_tags, alloc::BlockTags::kNone)
      << "the trap must bite the myopic greedy walk for this test to mean "
         "anything";
  BeamSearch beam2(2, fig4_wrong_order());
  const ExplorationResult r2 = run_search(trace_, beam2, myopic);
  EXPECT_LT(r2.best_sim.peak_footprint, greedy.best_sim.peak_footprint)
      << "width 2 must escape the Fig. 4 trap";
  BeamSearch beam4(4, fig4_wrong_order());
  const ExplorationResult r4 = run_search(trace_, beam4, myopic);
  EXPECT_LE(r4.best_sim.peak_footprint, greedy.best_sim.peak_footprint);
}

// ---------------------------------------------------------------------------
// thread-count and cache-scope parity
// ---------------------------------------------------------------------------

TEST_F(SearchStrategies, AllStrategiesBitIdenticalAcrossThreadCounts) {
  std::vector<ExplorationResult> baselines;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    // One engine serves every strategy, as it would a design run's searches.
    const std::unique_ptr<EvalEngine> engine = make_engine(threads);
    const auto run = [&](SearchStrategy& strategy) {
      return run_search(trace_, strategy, {}, engine.get());
    };
    BeamSearch greedy(1, paper_order());
    BeamSearch beam(2, paper_order());
    ExhaustiveSearch exhaustive(high_impact_trees());
    RandomSearch sampler(40, 11);
    AnnealingSearch anneal(60, 1);
    std::vector<ExplorationResult> results;
    results.push_back(run(greedy));
    results.push_back(run(beam));
    results.push_back(run(exhaustive));
    results.push_back(run(sampler));
    results.push_back(run(anneal));
    if (threads == 1) {
      baselines = std::move(results);
      continue;
    }
    ASSERT_EQ(results.size(), baselines.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      expect_identical_with_accounting(
          results[i], baselines[i],
          "strategy " + std::to_string(i) + " at " + std::to_string(threads) +
              " threads");
    }
  }
}

// Width 1 is the greedy walk, the only width that hints; a wider beam on
// the same pool replays every candidate as usual.
class WalkLookahead : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WalkLookahead, TwoThreadWalkMatchesSerialOnADrrCut) {
  AllocTrace cut = workloads::record_trace(workloads::case_study("drr"), 7);
  cut.truncate(20000);
  BeamSearch serial(GetParam(), paper_order());
  const ExplorationResult want = run_search(cut, serial);

  ExplorerOptions opts;
  opts.num_threads = 2;
  EvalEngine pooled(2);
  BeamSearch walk(GetParam(), paper_order());
  const ExplorationResult got = run_search(cut, walk, opts, &pooled);
  expect_identical_with_accounting(got, want,
                                   "2-thread " + walk.name() + " with hints");
  // Engine-side counter only: nothing a result reports depends on it.
  const EvalEngine::HintStats hs = pooled.hint_stats();
  if (GetParam() == 1) {
    EXPECT_GT(hs.adopted, 0u) << "queued " << hs.queued << ", started "
                              << hs.started;
    EXPECT_LE(hs.adopted, got.simulations);
  } else {
    EXPECT_EQ(hs.queued, 0u) << "only the greedy walk hints";
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WalkLookahead, ::testing::Values(1u, 2u));

TEST_F(SearchStrategies, CacheScopesShiftAccountingNotResults) {
  // Per-search cache vs shared cache vs no cache at all: the winner, step
  // logs, and total evaluation count are invariant; only the replay/hit
  // split moves.
  const auto run_all = [this](const ExplorerOptions& opts) {
    std::vector<ExplorationResult> out;
    BeamSearch beam(2, paper_order());
    out.push_back(run_search(trace_, beam, opts));
    AnnealingSearch anneal(60, 1);
    out.push_back(run_search(trace_, anneal, opts));
    ExhaustiveSearch exhaustive(high_impact_trees());
    out.push_back(run_search(trace_, exhaustive, opts));
    return out;
  };
  ExplorerOptions per_search;
  ExplorerOptions shared;
  shared.shared_cache = std::make_shared<SharedScoreCache>();
  ExplorerOptions uncached;
  uncached.cache = false;
  const auto a = run_all(per_search);
  const auto b = run_all(shared);
  const auto c = run_all(uncached);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string what = "strategy " + std::to_string(i);
    expect_identical(a[i], b[i], what + " shared-cache");
    expect_identical(a[i], c[i], what + " uncached");
    EXPECT_EQ(a[i].simulations + a[i].cache_hits,
              b[i].simulations + b[i].cache_hits)
        << what;
    EXPECT_EQ(a[i].simulations + a[i].cache_hits,
              c[i].simulations + c[i].cache_hits)
        << what;
  }
  // Later searches on the shared cache rode the earlier ones' replays.
  EXPECT_GT(b[2].cross_search_hits, 0u);
}

TEST_F(SearchStrategies, PersistedCacheKeepsResultsBitIdentical) {
  const std::string path =
      ::testing::TempDir() + "dmm_search_strategies_warm.snapshot";
  std::remove(path.c_str());
  ExplorerOptions cold_opts;
  cold_opts.shared_cache = std::make_shared<SharedScoreCache>();
  BeamSearch beam(2, paper_order());
  const ExplorationResult cold = run_search(trace_, beam, cold_opts);
  ASSERT_TRUE(cold_opts.shared_cache->save(path).saved);
  ExplorerOptions warm_opts;
  warm_opts.shared_cache = std::make_shared<SharedScoreCache>();
  ASSERT_TRUE(warm_opts.shared_cache->load(path).loaded);
  const ExplorationResult warm = run_search(trace_, beam, warm_opts);
  expect_identical(warm, cold, "warm vs cold beam:2");
  EXPECT_EQ(warm.simulations, 0u)
      << "a warm run over the same trace must replay nothing";
  EXPECT_GT(warm.persisted_hits, 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// AnnealingSearch
// ---------------------------------------------------------------------------

TEST_F(SearchStrategies, AnnealingDeterministicForFixedSeed) {
  AnnealingSearch a(80, 5), b(80, 5);
  const ExplorationResult ra = run_search(trace_, a);
  const ExplorationResult rb = run_search(trace_, b);
  expect_identical_with_accounting(ra, rb, "anneal seed 5, twice");
  EXPECT_TRUE(ra.feasible);
  EXPECT_EQ(ra.simulations + ra.cache_hits, 80u)
      << "the budget is metered in evaluations";
}

TEST_F(SearchStrategies, FinishedStreamingStrategyRunsAgainFromTheStart) {
  // Dealt in slices of 7 evaluations, the way DesignRun deals them: a
  // resumed step must carry on, not restart.  (Slicing moves the batch
  // boundaries, so evals_to_best differs from a whole run's.)
  const auto sliced = [&](SearchStrategy& s) {
    const ExplorerOptions opts;
    const std::unique_ptr<EvalEngine> engine = make_engine(1);
    SearchContext ctx(trace_, trace_.fingerprint(), opts, *engine);
    while (s.step(ctx, 7)) {
    }
    return ctx.finish();
  };
  const std::vector<std::unique_ptr<SearchStrategy>> strategies = [] {
    std::vector<std::unique_ptr<SearchStrategy>> v;
    v.push_back(std::make_unique<ExhaustiveSearch>(
        std::vector<TreeId>{TreeId::kA2, TreeId::kA5, TreeId::kE2}));
    v.push_back(std::make_unique<RandomSearch>(40, 11));
    v.push_back(std::make_unique<AnnealingSearch>(60, 5));
    return v;
  }();
  for (const std::unique_ptr<SearchStrategy>& s : strategies) {
    const ExplorationResult first = run_search(trace_, *s);
    ASSERT_GT(first.simulations, 0u) << s->name();
    expect_identical_with_accounting(run_search(trace_, *s), first,
                                     s->name() + ", second run");
    const ExplorationResult in_slices = sliced(*s);
    EXPECT_EQ(in_slices.best, first.best) << s->name();
    EXPECT_EQ(in_slices.simulations, first.simulations) << s->name();
    EXPECT_EQ(in_slices.cache_hits, first.cache_hits) << s->name();
    expect_identical_with_accounting(sliced(*s), in_slices,
                                     s->name() + ", sliced twice");
  }
}

TEST_F(SearchStrategies, AnnealingFindsCompetitiveDesign) {
  // SA over the coherent space must land within 10% of the greedy
  // walk's peak on this trace at a modest budget — the point of the
  // strategy is order-independence, not luck.
  BeamSearch walk(1, paper_order());
  const ExplorationResult greedy = run_search(trace_, walk);
  AnnealingSearch sa(120, 1);
  const ExplorationResult r = run_search(trace_, sa);
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(static_cast<double>(r.best_sim.peak_footprint),
            1.10 * static_cast<double>(greedy.best_sim.peak_footprint));
}

// ---------------------------------------------------------------------------
// B2/B3 single-pool alias audit (ROADMAP open item)
// ---------------------------------------------------------------------------

TEST_F(SearchStrategies, B3CollapsesWhereTheManagerNeverReadsIt) {
  // CustomManager consults pool_count only under per-size-class division
  // (static roster pre-creation and dynamic growth); single-pool managers
  // create pool 0 unconditionally and per-exact-size managers make pools
  // on demand.  canonical() therefore folds B3 to the rule-forced value.
  DmmConfig single = alloc::drr_paper_config();
  DmmConfig alias = single;
  alias.pool_count = alloc::PoolCount::kStaticMany;
  EXPECT_EQ(alloc::canonical(single), alloc::canonical(alias));

  DmmConfig exact = alloc::minimal_config();
  ASSERT_EQ(exact.pool_division, alloc::PoolDivision::kPoolPerExactSize);
  DmmConfig exact_alias = exact;
  exact_alias.pool_count = alloc::PoolCount::kOne;
  EXPECT_EQ(alloc::canonical(exact), alloc::canonical(exact_alias));

  // Under per-size-class division B3 is live and must survive.
  DmmConfig per_class = alloc::drr_paper_config();
  per_class.pool_division = alloc::PoolDivision::kPoolPerSizeClass;
  per_class.pool_count = alloc::PoolCount::kStaticMany;
  DmmConfig per_class_dyn = per_class;
  per_class_dyn.pool_count = alloc::PoolCount::kDynamic;
  EXPECT_NE(alloc::canonical(per_class), alloc::canonical(per_class_dyn));
}

TEST_F(SearchStrategies, B2SinglePoolAliasesStayDistinct) {
  // B2 = linked-list routes every request through find_pool's linear scan,
  // which charges routing_steps_ even when the list holds a single pool;
  // the array path charges nothing.  Identical allocation behaviour,
  // different work accounting — and work_steps is both the tie-break of
  // candidate_better and the time_weight objective term, so canonical()
  // must NOT unify the pair.
  DmmConfig array_cfg = alloc::drr_paper_config();
  DmmConfig list_cfg = array_cfg;
  list_cfg.pool_structure = alloc::PoolStructure::kLinkedList;
  EXPECT_NE(alloc::canonical(array_cfg), alloc::canonical(list_cfg));

  const EvalOutcome array_out = score_candidate(trace_, {array_cfg, 0});
  const EvalOutcome list_out = score_candidate(trace_, {list_cfg, 0});
  EXPECT_EQ(array_out.sim.peak_footprint, list_out.sim.peak_footprint)
      << "the managers behave identically...";
  EXPECT_DOUBLE_EQ(array_out.sim.avg_footprint, list_out.sim.avg_footprint);
  EXPECT_GT(list_out.work_steps, array_out.work_steps)
      << "...but the linked-list lookup pays a routing step per request";
}

// ---------------------------------------------------------------------------
// strategy selection plumbing
// ---------------------------------------------------------------------------

TEST(SearchSpecParse, AcceptsTheCliGrammar) {
  const auto greedy = parse_search_spec("greedy");
  ASSERT_TRUE(greedy.has_value());
  EXPECT_EQ(greedy->kind, SearchSpec::Kind::kBeam);
  EXPECT_EQ(greedy->width, 1u);
  EXPECT_EQ(make_strategy(*greedy)->name(), "greedy");

  const auto beam = parse_search_spec("beam:4");
  ASSERT_TRUE(beam.has_value());
  EXPECT_EQ(beam->kind, SearchSpec::Kind::kBeam);
  EXPECT_EQ(beam->width, 4u);
  EXPECT_EQ(make_strategy(*beam)->name(), "beam:4");

  const auto anneal = parse_search_spec("anneal:17");
  ASSERT_TRUE(anneal.has_value());
  EXPECT_EQ(anneal->kind, SearchSpec::Kind::kAnneal);
  EXPECT_EQ(anneal->seed, 17u);
  EXPECT_EQ(anneal->eval_budget(), 400u);

  const auto random = parse_search_spec("random:50:9");
  ASSERT_TRUE(random.has_value());
  EXPECT_EQ(random->kind, SearchSpec::Kind::kRandom);
  EXPECT_EQ(random->eval_budget(), 50u);
  EXPECT_EQ(random->seed, 9u);

  EXPECT_TRUE(parse_search_spec("exhaustive").has_value());
  EXPECT_EQ(parse_search_spec("random")->eval_budget(), 200u);
  // The default budget follows the kind whenever it is set, not only
  // through the parser.
  SearchSpec by_hand;
  by_hand.kind = SearchSpec::Kind::kExhaustive;
  EXPECT_EQ(by_hand.eval_budget(), 100000u);
  by_hand.kind = SearchSpec::Kind::kAnneal;
  EXPECT_EQ(by_hand.eval_budget(), 400u);

  EXPECT_FALSE(parse_search_spec("").has_value());
  EXPECT_FALSE(parse_search_spec("bogus").has_value());
  EXPECT_FALSE(parse_search_spec("beam").has_value());
  EXPECT_FALSE(parse_search_spec("beam:0").has_value());
  EXPECT_FALSE(parse_search_spec("beam:two").has_value());
  EXPECT_FALSE(parse_search_spec("random:0").has_value());
  EXPECT_FALSE(parse_search_spec("greedy:1").has_value());
  // Seeds must round-trip through `unsigned` — truncation would hand two
  // distinct seeds the same trajectory — and strtoull clamping at 2^64
  // must reject, not silently saturate.
  EXPECT_FALSE(parse_search_spec("anneal:4294967296").has_value());
  EXPECT_FALSE(parse_search_spec("random:10:4294967296").has_value());
  EXPECT_FALSE(
      parse_search_spec("beam:18446744073709551616").has_value());
  EXPECT_TRUE(parse_search_spec("anneal:4294967295").has_value());
}

TEST_F(SearchStrategies, MakeStrategyMatchesTheExplicitStrategy) {
  const std::unique_ptr<SearchStrategy> parsed =
      make_strategy(*parse_search_spec("beam:2"));
  const ExplorationResult via_spec = run_search(trace_, *parsed);
  BeamSearch beam(2, paper_order());
  const ExplorationResult direct = run_search(trace_, beam);
  expect_identical_with_accounting(via_spec, direct,
                                   "parsed spec vs explicit strategy");
}

// ---------------------------------------------------------------------------
// failure-path persistence (the scope-guard save)
// ---------------------------------------------------------------------------

class ThrowingStrategy final : public SearchStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "throwing"; }
  bool step(SearchContext& ctx, std::size_t /*eval_budget*/) override {
    (void)ctx.evaluate({{alloc::drr_paper_config(), 0}});
    throw std::runtime_error("searcher died mid-run");
  }
};

TEST_F(SearchStrategies, ThrowingStrategyStillPersistsPaidReplays) {
  const std::string path =
      ::testing::TempDir() + "dmm_search_strategies_throw.snapshot";
  std::remove(path.c_str());
  ExplorerOptions opts;
  opts.shared_cache = std::make_shared<SharedScoreCache>();
  ThrowingStrategy strategy;
  EXPECT_THROW((void)run_search(trace_, strategy, opts), std::runtime_error);
  // The cache absorbed the replay before the throw, so the owner's save
  // on its failure path (DesignRun::complete's) persists it.
  ASSERT_TRUE(opts.shared_cache->save(path).saved);
  SharedScoreCache fresh;
  const SnapshotLoadResult loaded = fresh.load(path);
  EXPECT_TRUE(loaded.loaded) << loaded.reason;
  EXPECT_GE(loaded.entries_imported, 1u)
      << "the replay paid before the throw must be in the snapshot";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dmm::core
