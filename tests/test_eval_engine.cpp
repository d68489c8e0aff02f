// The evaluation-engine contract: serial and thread-pool backends must be
// interchangeable — same best vector, same step logs, same accounting —
// and the score cache must only ever skip work, never change answers.

#include "dmm/core/eval_engine.h"

#include <gtest/gtest.h>

#include <memory>

#include "dmm/core/explorer.h"
#include "dmm/workloads/workload.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;

/// Recorded workload trace, truncated so one explore stays test-sized.
AllocTrace workload_trace(const std::string& name, std::size_t max_events) {
  AllocTrace t = workloads::record_trace(workloads::case_study(name), 7);
  if (t.size() > max_events) {
    t.events().resize(max_events);
    t.close_leaks();
  }
  std::string why;
  EXPECT_TRUE(t.validate(&why)) << why;
  return t;
}

void expect_identical(const ExplorationResult& a, const ExplorationResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.best, b.best) << what << ": best vector differs";
  EXPECT_EQ(a.best_sim.peak_footprint, b.best_sim.peak_footprint) << what;
  EXPECT_EQ(a.best_sim.final_footprint, b.best_sim.final_footprint) << what;
  EXPECT_EQ(a.best_sim.avg_footprint, b.best_sim.avg_footprint) << what;
  EXPECT_EQ(a.best_sim.failed_allocs, b.best_sim.failed_allocs) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_EQ(a.work_steps, b.work_steps) << what;
  EXPECT_EQ(a.simulations, b.simulations) << what;
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.cross_search_hits, b.cross_search_hits) << what;
  EXPECT_EQ(a.canonical_skips, b.canonical_skips) << what;
  ASSERT_EQ(a.steps.size(), b.steps.size()) << what;
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_EQ(a.steps[i].tree, b.steps[i].tree) << what << " step " << i;
    EXPECT_EQ(a.steps[i].chosen, b.steps[i].chosen) << what << " step " << i;
    ASSERT_EQ(a.steps[i].candidates.size(), b.steps[i].candidates.size());
    for (std::size_t c = 0; c < a.steps[i].candidates.size(); ++c) {
      const CandidateScore& ca = a.steps[i].candidates[c];
      const CandidateScore& cb = b.steps[i].candidates[c];
      EXPECT_EQ(ca.leaf, cb.leaf);
      EXPECT_EQ(ca.admissible, cb.admissible);
      EXPECT_EQ(ca.peak_footprint, cb.peak_footprint)
          << what << " step " << i << " cand " << c;
      EXPECT_EQ(ca.avg_footprint, cb.avg_footprint);
      EXPECT_EQ(ca.work_steps, cb.work_steps);
      EXPECT_EQ(ca.failed_allocs, cb.failed_allocs);
    }
  }
}

// ---------------------------------------------------------------------------
// DmmConfig hash / equality / canonicalization laws
// ---------------------------------------------------------------------------

TEST(DmmConfigHash, EqualConfigsHashEqual) {
  const DmmConfig a = alloc::drr_paper_config();
  const DmmConfig b = alloc::drr_paper_config();
  EXPECT_EQ(a, b);
  EXPECT_EQ(alloc::hash_value(a), alloc::hash_value(b));
  EXPECT_EQ(alloc::DmmConfigHash{}(a), alloc::hash_value(a));
}

TEST(DmmConfigHash, FieldChangesChangeTheHash) {
  const DmmConfig base = alloc::drr_paper_config();
  DmmConfig m = base;
  m.fit = alloc::FitAlgorithm::kBestFit;
  EXPECT_NE(base, m);
  EXPECT_NE(alloc::hash_value(base), alloc::hash_value(m));
  m = base;
  m.chunk_bytes *= 2;
  EXPECT_NE(alloc::hash_value(base), alloc::hash_value(m));
}

TEST(DmmConfigCanonical, IsIdempotentAndPreservesLeaves) {
  const DmmConfig cfg = alloc::minimal_config();
  const DmmConfig once = alloc::canonical(cfg);
  EXPECT_EQ(once, alloc::canonical(once));
  for (TreeId t : all_trees()) {
    EXPECT_EQ(get_leaf(cfg, t), get_leaf(once, t)) << tree_id(t);
  }
}

TEST(DmmConfigCanonical, DeadKnobsCollapse) {
  // minimal_config never splits: the deferred-split threshold cannot
  // influence the manager, so the canonical forms must collide.
  DmmConfig a = alloc::minimal_config();
  DmmConfig b = a;
  b.deferred_split_min = 12345;
  ASSERT_NE(a, b);
  EXPECT_EQ(alloc::canonical(a), alloc::canonical(b));

  // The DRR vector splits and coalesces unbounded: max_class_log2 is dead.
  DmmConfig c = alloc::drr_paper_config();
  DmmConfig d = c;
  d.max_class_log2 = 20;
  EXPECT_EQ(alloc::canonical(c), alloc::canonical(d));

  // ... but a *live* knob must survive canonicalization.
  DmmConfig e = c;
  e.chunk_bytes *= 4;
  EXPECT_NE(alloc::canonical(c), alloc::canonical(e));
}

TEST(DmmConfigCanonical, EffectiveMechanismPairsCollapse) {
  // The manager gates each mechanism on A5 *and* its schedule, so a
  // granted-but-never-scheduled mechanism and a scheduled-but-absent one
  // both build the manager with the mechanism off.
  DmmConfig off = alloc::minimal_config();  // kNone / never / never
  DmmConfig granted_idle = off;
  granted_idle.flexible = alloc::FlexibleBlockSize::kSplitOnly;
  DmmConfig scheduled_absent = off;
  scheduled_absent.split_when = alloc::SplitWhen::kAlways;
  EXPECT_EQ(alloc::canonical(off), alloc::canonical(granted_idle));
  EXPECT_EQ(alloc::canonical(off), alloc::canonical(scheduled_absent));
  // An actually-running mechanism must NOT collapse to off.
  DmmConfig running = off;
  running.flexible = alloc::FlexibleBlockSize::kSplitOnly;
  running.split_when = alloc::SplitWhen::kAlways;
  EXPECT_NE(alloc::canonical(off), alloc::canonical(running));
}

TEST(DmmConfigCanonical, SortedStructuresAbsorbFreeListOrder) {
  // FreeIndex overrides C2 for self-ordering DDTs; the leaf is dead there.
  DmmConfig sorted = alloc::drr_paper_config();
  sorted.block_structure = alloc::BlockStructure::kSizeBinaryTree;
  sorted.fit = alloc::FitAlgorithm::kBestFit;
  DmmConfig lifo = sorted;
  lifo.order = alloc::FreeListOrder::kLIFO;
  DmmConfig fifo = sorted;
  fifo.order = alloc::FreeListOrder::kFIFO;
  EXPECT_EQ(alloc::canonical(lifo), alloc::canonical(fifo));
  // On a plain list the discipline is live.
  DmmConfig list_lifo = alloc::drr_paper_config();
  list_lifo.order = alloc::FreeListOrder::kLIFO;
  DmmConfig list_fifo = alloc::drr_paper_config();
  list_fifo.order = alloc::FreeListOrder::kFIFO;
  EXPECT_NE(alloc::canonical(list_lifo), alloc::canonical(list_fifo));
}

// ---------------------------------------------------------------------------
// Score-cache sessions
// ---------------------------------------------------------------------------

TEST(ScoreSession, LookupInsertRoundTrip) {
  SharedScoreCache store;
  SharedScoreCache::Session cache = store.begin_search(1);
  const DmmConfig cfg = alloc::drr_paper_config();
  SharedScoreCache::Entry hit;
  EXPECT_FALSE(cache.lookup_canonical(alloc::canonical(cfg), &hit));
  SimResult sim;
  sim.peak_footprint = 42;
  cache.insert_canonical(alloc::canonical(cfg), {sim, 7});
  ASSERT_TRUE(cache.lookup_canonical(alloc::canonical(cfg), &hit));
  EXPECT_EQ(hit.sim.peak_footprint, 42u);
  EXPECT_EQ(hit.work_steps, 7u);
  // Behaviourally identical config (dead knob differs) must hit too.
  DmmConfig alias = cfg;
  alias.max_class_log2 = 20;
  EXPECT_TRUE(cache.lookup_canonical(alloc::canonical(alias), &hit));
  EXPECT_EQ(store.size(), 1u);
  // A search's hits on its own entries are never cross-search hits.
  EXPECT_EQ(cache.cross_search_hits(), 0u);
}

TEST(ScoreSession, ExplorerHitAccounting) {
  const AllocTrace trace = workload_trace("drr", 4000);
  ExplorerOptions with_cache;
  with_cache.cache = true;
  ExplorerOptions without_cache;
  without_cache.cache = false;
  Explorer cached(trace, with_cache);
  Explorer uncached(trace, without_cache);
  const ExplorationResult on = cached.explore();
  const ExplorationResult off = uncached.explore();
  EXPECT_EQ(off.cache_hits, 0u);
  EXPECT_GT(on.cache_hits, 0u)
      << "the greedy walk's repaired completions must collide";
  // The cache may only *skip* replays, never add or change evaluations.
  EXPECT_EQ(on.simulations + on.cache_hits, off.simulations);
  EXPECT_EQ(on.best, off.best);
  EXPECT_EQ(on.best_sim.peak_footprint, off.best_sim.peak_footprint);
}

// ---------------------------------------------------------------------------
// Engine interchangeability
// ---------------------------------------------------------------------------

TEST(EvalEngine, DirectBatchMatchesSerial) {
  const AllocTrace trace = workload_trace("drr", 3000);
  std::vector<EvalJob> jobs;
  DmmConfig cfg = alloc::minimal_config();
  jobs.push_back({cfg, 0});
  cfg.fit = alloc::FitAlgorithm::kBestFit;
  jobs.push_back({cfg, 1});
  jobs.push_back({alloc::drr_paper_config(), 2});
  jobs.push_back({alloc::drr_paper_config(), 3});  // duplicate

  SerialEngine serial;
  ThreadPoolEngine pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  SharedScoreCache store_a;
  SharedScoreCache store_b;
  SharedScoreCache::Session cache_a = store_a.begin_search(trace.fingerprint());
  SharedScoreCache::Session cache_b = store_b.begin_search(trace.fingerprint());
  const std::vector<EvalOutcome> a = serial.evaluate(trace, jobs, &cache_a);
  const std::vector<EvalOutcome> b = pool.evaluate(trace, jobs, &cache_b);
  ASSERT_EQ(a.size(), jobs.size());
  ASSERT_EQ(b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(a[i].tag, jobs[i].tag);
    EXPECT_EQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].sim.peak_footprint, b[i].sim.peak_footprint) << i;
    EXPECT_EQ(a[i].work_steps, b[i].work_steps) << i;
    EXPECT_EQ(a[i].from_cache, b[i].from_cache) << i;
  }
  // The in-batch duplicate must be deduped identically by both engines.
  EXPECT_FALSE(a[2].from_cache);
  EXPECT_TRUE(a[3].from_cache);
  EXPECT_EQ(store_a.size(), 3u);
  EXPECT_EQ(store_b.size(), 3u);
}

class EngineDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineDeterminism, ExploreIsBitIdenticalAcrossThreadCounts) {
  const auto trace =
      std::make_shared<const AllocTrace>(workload_trace(GetParam(), 5000));
  ExplorationResult serial_result;
  {
    ExplorerOptions opts;
    opts.num_threads = 1;
    Explorer ex(trace, opts);
    serial_result = ex.explore();
    EXPECT_EQ(ex.engine().name(), "serial");
  }
  for (const unsigned threads : {2u, 4u, 8u}) {
    ExplorerOptions opts;
    opts.num_threads = threads;
    Explorer ex(trace, opts);
    EXPECT_EQ(ex.engine().name(), "thread-pool");
    const ExplorationResult parallel_result = ex.explore();
    expect_identical(serial_result, parallel_result,
                     std::string(GetParam()) + " @" +
                         std::to_string(threads) + " threads");
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, EngineDeterminism,
                         ::testing::Values("drr", "render3d"));

TEST(EvalEngine, ExhaustiveAndRandomMatchAcrossEngines) {
  const auto trace =
      std::make_shared<const AllocTrace>(workload_trace("drr", 3000));
  ExplorerOptions serial_opts;
  ExplorerOptions pool_opts;
  pool_opts.num_threads = 4;
  Explorer serial(trace, serial_opts);
  Explorer pool(trace, pool_opts);
  const std::vector<TreeId> subspace = {TreeId::kA2, TreeId::kA5,
                                        TreeId::kE2};
  expect_identical(serial.exhaustive(subspace), pool.exhaustive(subspace),
                   "exhaustive");
  expect_identical(serial.random_search(40, 11), pool.random_search(40, 11),
                   "random");
}

TEST(EvalEngine, SharedTraceIsNotCopied) {
  const auto trace =
      std::make_shared<const AllocTrace>(workload_trace("drr", 2000));
  Explorer a(trace);
  Explorer b(trace);
  EXPECT_EQ(a.shared_trace().get(), trace.get());
  EXPECT_EQ(b.shared_trace().get(), trace.get());
  EXPECT_EQ(&a.trace(), &b.trace());
}

}  // namespace
}  // namespace dmm::core
