// The cross-search caching subsystem and the fixed candidate comparator:
//  * candidate_better handles infinite objectives explicitly (the old
//    1%-band arithmetic produced inf-inf = NaN on infeasible ties),
//  * searches flag infeasible outcomes instead of silently returning a
//    garbage best,
//  * a SharedScoreCache serves many searches bit-identically to each
//    search's private cache while reporting cross-search reuse, from any
//    number of threads.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "dmm/alloc/config_rules.h"
#include "dmm/core/methodology.h"
#include "dmm/core/search.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;

constexpr double kInf = std::numeric_limits<double>::infinity();

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

/// No manager can serve this: two simultaneously live ~3.75 GiB objects
/// exceed the arena's 4 GiB reservation, so every replay fails allocations
/// regardless of the decision vector.
AllocTrace infeasible_trace() {
  AllocTrace t;
  constexpr std::uint32_t kHuge = 0xF0000000u;  // ~3.75 GiB
  for (std::uint32_t pair = 0; pair < 3; ++pair) {
    t.record_alloc(2 * pair, kHuge);
    t.record_alloc(2 * pair + 1, kHuge);
    t.record_free(2 * pair);
    t.record_free(2 * pair + 1);
  }
  return t;
}

void expect_same_search(const ExplorationResult& a, const ExplorationResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.best, b.best) << what << ": best vector differs";
  EXPECT_EQ(a.best_sim.peak_footprint, b.best_sim.peak_footprint) << what;
  EXPECT_EQ(a.best_sim.avg_footprint, b.best_sim.avg_footprint) << what;
  EXPECT_EQ(a.best_sim.failed_allocs, b.best_sim.failed_allocs) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.work_steps, b.work_steps) << what;
  ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].tree, b.steps[i].tree) << what << " step " << i;
    EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen) << what << " step " << i;
    ASSERT_EQ(a.steps[i].candidates.size(), b.steps[i].candidates.size());
    for (std::size_t c = 0; c < a.steps[i].candidates.size(); ++c) {
      EXPECT_EQ(a.steps[i].candidates[c].peak_footprint,
                b.steps[i].candidates[c].peak_footprint)
          << what << " step " << i << " cand " << c;
      EXPECT_EQ(a.steps[i].candidates[c].work_steps,
                b.steps[i].candidates[c].work_steps);
    }
  }
}

// ---------------------------------------------------------------------------
// candidate_better: the inf-inf => NaN tie bug
// ---------------------------------------------------------------------------

TEST(CandidateBetter, FeasibleAlwaysBeatsInfeasible) {
  // Even a huge finite peak wins against an infeasible candidate with a
  // seductive average footprint.
  EXPECT_TRUE(candidate_better(1e12, 0, 1e12, 1e9, kInf, 1, 10.0, 1));
  EXPECT_FALSE(candidate_better(kInf, 1, 10.0, 1, 1e12, 0, 1e12, 1e9));
}

TEST(CandidateBetter, InfeasibleTiesRankByFailureCount) {
  // The old comparator computed tol = 0.01 * min(inf, inf) = inf, then
  // abs(inf - inf) = NaN, and NaN > inf is false — so the comparison fell
  // through to average footprint and the config with MORE failed
  // allocations could win the tie.  Now the tie ranks by distance to
  // feasibility.
  EXPECT_TRUE(candidate_better(kInf, 1, 500.0, 10, kInf, 5, 100.0, 10))
      << "fewer failures must win even with a worse average footprint";
  EXPECT_FALSE(candidate_better(kInf, 5, 100.0, 10, kInf, 1, 500.0, 10))
      << "the old NaN fall-through preferred the lower average";
  // Equal failure counts: the footprint tiers still break the tie.
  EXPECT_TRUE(candidate_better(kInf, 3, 100.0, 10, kInf, 3, 500.0, 10));
  EXPECT_FALSE(candidate_better(kInf, 3, 100.0, 10, kInf, 3, 100.0, 10));
}

TEST(CandidateBetter, FinitePeaksKeepTheOnePercentBand) {
  // Clearly better peak wins.
  EXPECT_TRUE(candidate_better(100.0, 0, 50.0, 5, 200.0, 0, 10.0, 1));
  // Within 1%: falls to the average-footprint tier.
  EXPECT_TRUE(candidate_better(1000.0, 0, 10.0, 5, 1004.0, 0, 500.0, 1));
  EXPECT_FALSE(candidate_better(1004.0, 0, 500.0, 1, 1000.0, 0, 10.0, 5));
}

// ---------------------------------------------------------------------------
// Infeasible-only searches: feasible == false, no silent garbage best
// ---------------------------------------------------------------------------

class InfeasibleSearch : public ::testing::Test {
 protected:
  InfeasibleSearch() : trace_(infeasible_trace()) {}
  AllocTrace trace_;
};

TEST_F(InfeasibleSearch, ExploreFlagsInfeasibility) {
  BeamSearch greedy(1);
  const ExplorationResult r = run_search(trace_, greedy);
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.best_sim.failed_allocs, 0u);
}

TEST_F(InfeasibleSearch, ExhaustiveFlagsInfeasibility) {
  ExhaustiveSearch exhaustive({TreeId::kB4, TreeId::kC1});
  const ExplorationResult r = run_search(trace_, exhaustive);
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.simulations + r.cache_hits, 0u);
  EXPECT_GT(r.best_sim.failed_allocs, 0u);
  // The least-bad vector is still a coherent one, just flagged unusable.
  EXPECT_TRUE(alloc::is_valid(r.best));
}

TEST_F(InfeasibleSearch, RandomSearchFlagsInfeasibility) {
  RandomSearch sampler(10, /*seed=*/7);
  const ExplorationResult r = run_search(trace_, sampler);
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.best_sim.failed_allocs, 0u);
}

TEST(FeasibleSearch, FeasibleCandidateBeatsInfeasibleOne) {
  // Peak live ~2 MiB: a statically preallocated 1 MiB pool must fail while
  // the adaptive leaves succeed — the comparator may never crown static.
  AllocTrace t;
  for (std::uint32_t i = 0; i < 64; ++i) t.record_alloc(i, 32 * 1024);
  for (std::uint32_t i = 0; i < 64; ++i) t.record_free(i);
  ExhaustiveSearch exhaustive({TreeId::kB4});
  const ExplorationResult r = run_search(t, exhaustive);
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.best_sim.failed_allocs, 0u);
  EXPECT_NE(r.best.adaptivity, alloc::PoolAdaptivity::kStaticPreallocated);
}

// ---------------------------------------------------------------------------
// SharedScoreCache: sessions, keys, cross-search accounting
// ---------------------------------------------------------------------------

TEST(SharedScoreCache, SessionRoundTripAndCrossSearchAccounting) {
  SharedScoreCache cache;
  const DmmConfig cfg = alloc::drr_paper_config();
  const DmmConfig canon = alloc::canonical(cfg);
  SharedScoreCache::Entry entry;
  entry.sim.peak_footprint = 42;
  entry.work_steps = 7;

  auto first = cache.begin_search(/*trace_fingerprint=*/111);
  SharedScoreCache::Entry out;
  EXPECT_FALSE(first.lookup_canonical(canon, &out));
  first.insert_canonical(canon, entry);
  ASSERT_TRUE(first.lookup_canonical(canon, &out));
  EXPECT_EQ(out.sim.peak_footprint, 42u);
  EXPECT_EQ(out.work_steps, 7u);
  EXPECT_EQ(first.cross_search_hits(), 0u)
      << "a hit on the session's own entry is not cross-search";

  auto second = cache.begin_search(/*trace_fingerprint=*/111);
  ASSERT_TRUE(second.lookup_canonical(canon, &out));
  EXPECT_EQ(second.cross_search_hits(), 1u)
      << "a hit on another search's entry is cross-search";

  auto other_trace = cache.begin_search(/*trace_fingerprint=*/222);
  EXPECT_FALSE(other_trace.lookup_canonical(canon, &out))
      << "distinct traces must never share entries";

  const SharedScoreCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.searches, 3u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.cross_search_hits, 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Shared cache vs per-search cache: bit-identical searches
// ---------------------------------------------------------------------------

class SharedCacheIdentity : public ::testing::TestWithParam<unsigned> {};

TEST_P(SharedCacheIdentity, ExploreMatchesPerSearchCache) {
  const AllocTrace trace = variable_size_trace(3000);
  ExplorerOptions per_search;
  per_search.num_threads = GetParam();
  BeamSearch greedy(1);
  const ExplorationResult expected = run_search(trace, greedy, per_search);

  ExplorerOptions shared = per_search;
  shared.shared_cache = std::make_shared<SharedScoreCache>();
  const ExplorationResult got = run_search(trace, greedy, shared);
  expect_same_search(expected, got,
                     "shared cache @" + std::to_string(GetParam()));
  // On a cold shared cache the accounting matches the per-search cache
  // exactly — and nothing was cross-search yet.
  EXPECT_EQ(expected.simulations, got.simulations);
  EXPECT_EQ(expected.cache_hits, got.cache_hits);
  EXPECT_EQ(got.cross_search_hits, 0u);

  // A second identical search is served entirely by the first one.
  const ExplorationResult warm = run_search(trace, greedy, shared);
  expect_same_search(expected, warm,
                     "warm shared cache @" + std::to_string(GetParam()));
  EXPECT_EQ(warm.simulations, 0u);
  EXPECT_EQ(warm.cache_hits, expected.simulations + expected.cache_hits);
  EXPECT_GT(warm.cross_search_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, SharedCacheIdentity,
                         ::testing::Values(1u, 4u));

TEST(SharedCache, ExhaustiveReusesGreedyReplaysAcrossSearches) {
  const AllocTrace trace = variable_size_trace(3000);
  ExhaustiveSearch exhaustive({TreeId::kA2, TreeId::kA5, TreeId::kE2});
  const ExplorationResult expected = run_search(trace, exhaustive);

  ExplorerOptions shared;
  shared.shared_cache = std::make_shared<SharedScoreCache>();
  BeamSearch greedy(1);
  const ExplorationResult walk = run_search(trace, greedy, shared);
  EXPECT_GT(walk.simulations, 0u);
  const ExplorationResult validation = run_search(trace, exhaustive, shared);
  expect_same_search(expected, validation, "exhaustive after walk");
  EXPECT_EQ(expected.simulations + expected.cache_hits,
            validation.simulations + validation.cache_hits)
      << "the shared cache may shift replays to hits, never change the "
         "evaluation stream";
}

// ---------------------------------------------------------------------------
// design_manager with a shared cache
// ---------------------------------------------------------------------------

TEST(SharedCache, DesignManagerIsBitIdenticalAndReportsCrossSearchHits) {
  const AllocTrace trace = variable_size_trace(2500);
  for (const unsigned threads : {1u, 4u}) {
    DesignOptions per_search;
    per_search.explorer_options.num_threads = threads;
    per_search.validate = true;
    per_search.validation_trees = {TreeId::kA2, TreeId::kA5, TreeId::kE2};
    const MethodologyResult expected = design_manager(trace, per_search);

    DesignOptions shared = per_search;
    shared.explorer_options.shared_cache =
        std::make_shared<SharedScoreCache>();
    const MethodologyResult got = design_manager(trace, shared);

    ASSERT_EQ(expected.phase_configs.size(), got.phase_configs.size());
    for (std::size_t i = 0; i < expected.phase_configs.size(); ++i) {
      EXPECT_EQ(expected.phase_configs[i], got.phase_configs[i])
          << "phase " << i << " @" << threads << " threads";
      expect_same_search(expected.phase_results[i], got.phase_results[i],
                         "phase result " + std::to_string(i));
      // The walk runs before the validator, so even its accounting is
      // untouched by the shared cache within one run.
      EXPECT_EQ(expected.phase_results[i].simulations,
                got.phase_results[i].simulations);
      EXPECT_EQ(expected.phase_results[i].cache_hits,
                got.phase_results[i].cache_hits);
    }
    ASSERT_EQ(expected.validation_results.size(),
              got.validation_results.size());
    for (std::size_t i = 0; i < expected.validation_results.size(); ++i) {
      expect_same_search(expected.validation_results[i],
                         got.validation_results[i],
                         "validation result " + std::to_string(i));
    }
    EXPECT_EQ(expected.total_cross_search_hits, 0u);
    EXPECT_GT(got.total_cross_search_hits, 0u)
        << "the validator must reuse the walk's replays via the shared "
           "cache";
    EXPECT_LT(got.total_simulations, expected.total_simulations)
        << "cross-search reuse must save whole trace replays";
  }
}

// ---------------------------------------------------------------------------
// Concurrent searches on one shared cache (the TSan target)
// ---------------------------------------------------------------------------

TEST(SharedCache, ConcurrentSearchesAreSafeAndBitIdentical) {
  const AllocTrace trace = variable_size_trace(1500);
  BeamSearch reference(1);
  const ExplorationResult expected = run_search(trace, reference);

  const auto cache = std::make_shared<SharedScoreCache>();
  constexpr std::size_t kThreads = 4;
  std::vector<ExplorationResult> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        ExplorerOptions opts;
        opts.shared_cache = cache;
        BeamSearch greedy(1);
        results[i] = run_search(trace, greedy, opts);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  std::uint64_t total_replays = 0;
  for (std::size_t i = 0; i < kThreads; ++i) {
    expect_same_search(expected, results[i],
                       "concurrent search " + std::to_string(i));
    total_replays += results[i].simulations;
  }
  // Races decide who replays what, but the union of replays can never
  // exceed what the searches would have paid in isolation.
  EXPECT_LE(total_replays, kThreads * expected.simulations);
  EXPECT_GE(cache->stats().entries, expected.simulations);
}

}  // namespace
}  // namespace dmm::core
