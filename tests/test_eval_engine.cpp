// The evaluation-engine contract: every worker count (inline replays at 1,
// a pool above) gives the same best vector, step logs and accounting, and
// the score cache must only ever skip work, never change answers.

#include "dmm/core/eval_engine.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "dmm/core/search.h"
#include "dmm/workloads/workload.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;

/// Recorded workload trace, truncated so one explore stays test-sized.
AllocTrace workload_trace(const std::string& name, std::size_t max_events) {
  AllocTrace t = workloads::record_trace(workloads::case_study(name), 7);
  t.truncate(max_events);
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
  BeamSearch greedy(1);
  const ExplorationResult on = run_search(trace, greedy, with_cache);
  const ExplorationResult off = run_search(trace, greedy, without_cache);
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

  EvalEngine serial(1);
  EvalEngine pool(4);
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
  const AllocTrace trace = workload_trace(GetParam(), 5000);
  BeamSearch greedy(1);
  const ExplorationResult serial_result = run_search(trace, greedy);
  for (const unsigned threads : {2u, 4u, 8u}) {
    ExplorerOptions opts;
    opts.num_threads = threads;
    const ExplorationResult parallel_result = run_search(trace, greedy, opts);
    expect_identical(serial_result, parallel_result,
                     std::string(GetParam()) + " @" +
                         std::to_string(threads) + " threads");
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, EngineDeterminism,
                         ::testing::Values("drr", "render3d"));

TEST(EvalEngine, ExhaustiveAndRandomMatchAcrossEngines) {
  const AllocTrace trace = workload_trace("drr", 3000);
  ExplorerOptions serial_opts;
  ExplorerOptions pool_opts;
  pool_opts.num_threads = 4;
  ExhaustiveSearch exhaustive({TreeId::kA2, TreeId::kA5, TreeId::kE2});
  expect_identical(run_search(trace, exhaustive, serial_opts),
                   run_search(trace, exhaustive, pool_opts), "exhaustive");
  RandomSearch sampler(40, 11);
  expect_identical(run_search(trace, sampler, serial_opts),
                   run_search(trace, sampler, pool_opts), "random");
}

// ---------------------------------------------------------------------------
// Speculation: hints are replayed by idle workers and adopted at submit
// ---------------------------------------------------------------------------

/// Waits until workers of @p engine have started @p n hints; false after
/// a minute, so a hint that was never queued fails the test, not hangs it.
bool hints_started(const EvalEngine& engine, std::uint64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (engine.hint_stats().started < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

void expect_same_outcome(const EvalOutcome& a, const EvalOutcome& b,
                         const std::string& what) {
  EXPECT_EQ(a.tag, b.tag) << what;
  EXPECT_EQ(a.from_cache, b.from_cache) << what;
  EXPECT_EQ(a.work_steps, b.work_steps) << what;
  EXPECT_EQ(a.sim.peak_footprint, b.sim.peak_footprint) << what;
  EXPECT_EQ(a.sim.final_footprint, b.sim.final_footprint) << what;
  EXPECT_EQ(a.sim.avg_footprint, b.sim.avg_footprint) << what;
  EXPECT_EQ(a.sim.peak_live_bytes, b.sim.peak_live_bytes) << what;
  EXPECT_EQ(a.sim.failed_allocs, b.sim.failed_allocs) << what;
  EXPECT_EQ(a.sim.events, b.sim.events) << what;
}

void expect_same_stats(const SharedScoreCache::Stats& a,
                       const SharedScoreCache::Stats& b,
                       const std::string& what) {
  EXPECT_EQ(a.searches, b.searches) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.cross_search_hits, b.cross_search_hits) << what;
  EXPECT_EQ(a.persisted_hits, b.persisted_hits) << what;
  EXPECT_EQ(a.insertions, b.insertions) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.entries, b.entries) << what;
}

TEST(EngineHint, HintedThenSubmittedEqualsUnhinted) {
  const AllocTrace trace = workload_trace("drr", 3000);
  DmmConfig best_fit = alloc::drr_paper_config();
  best_fit.fit = alloc::FitAlgorithm::kBestFit;
  const std::vector<EvalJob> jobs = {{alloc::drr_paper_config(), 5},
                                     {best_fit, 6},
                                     {alloc::drr_paper_config(), 7}};

  EvalEngine serial(1);
  SharedScoreCache plain_store;
  SharedScoreCache::Session plain = plain_store.begin_search(1);
  const std::vector<EvalOutcome> want = serial.evaluate(trace, jobs, &plain);

  // The hint is adopted queued, running or finished depending on how far
  // a worker got before the submit; every path must match the unhinted
  // run in outcome and accounting.
  for (int wait = 0; wait < 3; ++wait) {
    const std::string what = "wait mode " + std::to_string(wait);
    EvalEngine pool(2);
    SharedScoreCache store;
    SharedScoreCache::Session cache = store.begin_search(1);
    // Hinted under other tags: adoption keeps the submitted job's tag.
    pool.hint(trace, {jobs[0].cfg, 100}, &cache);
    pool.hint(trace, {jobs[1].cfg, 101}, &cache);
    if (wait >= 1) {
      ASSERT_TRUE(hints_started(pool, 2)) << what;
    }
    if (wait >= 2) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::vector<EvalOutcome> got = pool.evaluate(trace, jobs, &cache);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_outcome(got[i], want[i], what + " job " +
                                               std::to_string(i));
    }
    pool.settle_hints();
    expect_same_stats(store.stats(), plain_store.stats(), what);
    EXPECT_EQ(cache.cross_search_hits(), plain.cross_search_hits()) << what;
    const EvalEngine::HintStats hs = pool.hint_stats();
    EXPECT_EQ(hs.queued, 2u) << what;
    if (wait >= 1) {
      EXPECT_EQ(hs.adopted, 2u) << what;
    }
  }
}

TEST(EngineHint, UnsubmittedHintsLeaveTheCacheUntouched) {
  const AllocTrace trace = workload_trace("drr", 2000);
  // Single-shard bounded cache: exact LRU, so a touched entry would
  // survive an eviction it otherwise loses.
  const SharedScoreCache::Limits limits{3};
  std::vector<DmmConfig> cfgs;
  for (const alloc::FitAlgorithm fit :
       {alloc::FitAlgorithm::kFirstFit, alloc::FitAlgorithm::kBestFit,
        alloc::FitAlgorithm::kExactFit, alloc::FitAlgorithm::kNextFit,
        alloc::FitAlgorithm::kWorstFit}) {
    DmmConfig cfg = alloc::drr_paper_config();
    cfg.fit = fit;
    cfgs.push_back(cfg);
  }
  for (std::size_t i = 1; i < cfgs.size(); ++i) {
    ASSERT_NE(alloc::canonical(cfgs[i]), alloc::canonical(cfgs[i - 1]));
  }
  auto run = [&](bool with_hints, std::vector<bool>* alive) {
    SharedScoreCache store(limits);
    SharedScoreCache::Session cache = store.begin_search(9);
    EvalEngine pool(2);
    (void)pool.evaluate(trace, {{cfgs[0], 0}, {cfgs[1], 1}, {cfgs[2], 2}},
                        &cache);
    if (with_hints) {
      // cfgs[0] is cached and least recent: a probe that touched it would
      // save it from the eviction below.  cfgs[3] is not cached and is
      // replayed but never submitted.
      pool.hint(trace, {cfgs[0], 0}, &cache);
      pool.hint(trace, {cfgs[3], 3}, &cache);
      EXPECT_TRUE(hints_started(pool, 1));
      pool.settle_hints();
      EXPECT_EQ(pool.hint_stats().queued, 1u) << "cached vector hinted";
      EXPECT_EQ(pool.hint_stats().adopted, 0u);
    }
    (void)pool.evaluate(trace, {{cfgs[4], 4}}, &cache);  // evicts one
    alive->clear();
    for (const DmmConfig& cfg : cfgs) {
      alive->push_back(cache.contains_canonical(alloc::canonical(cfg)));
    }
    return store.stats();
  };
  std::vector<bool> alive_plain;
  std::vector<bool> alive_hinted;
  const SharedScoreCache::Stats plain = run(false, &alive_plain);
  const SharedScoreCache::Stats hinted = run(true, &alive_hinted);
  expect_same_stats(hinted, plain, "hinted vs plain");
  EXPECT_EQ(alive_hinted, alive_plain);
  EXPECT_FALSE(alive_plain[0]) << "LRU evicts the oldest entry";
  EXPECT_FALSE(alive_hinted[3]) << "a hint never inserts";
}

TEST(EngineHint, HintOnOneTraceIsNeverAdoptedOnAnother) {
  const AllocTrace a = workload_trace("drr", 3000);
  const AllocTrace b = workload_trace("render3d", 3000);
  const DmmConfig cfg = alloc::drr_paper_config();
  SharedScoreCache store;
  SharedScoreCache::Session cache_a = store.begin_search(a.fingerprint());
  SharedScoreCache::Session cache_b = store.begin_search(b.fingerprint());
  EvalEngine pool(2);
  pool.hint(a, {cfg, 0}, &cache_a);
  ASSERT_TRUE(hints_started(pool, 1));
  const std::vector<EvalOutcome> got = pool.evaluate(b, {{cfg, 0}}, &cache_b);
  pool.settle_hints();
  EXPECT_EQ(pool.hint_stats().adopted, 0u);
  EvalEngine serial(1);
  expect_same_outcome(got[0], serial.evaluate(b, {{cfg, 0}})[0], "trace b");
}

TEST(EngineHint, TraceDestroyedRightAfterFinishIsSafe) {
  // A design run destroys its sub-traces before the engine; finish() must
  // leave no hint replaying them (ASan reports the use-after-free).
  EvalEngine pool(2);
  ExplorerOptions opts;
  // A chunk size no greedy candidate has: never cached, never submitted.
  std::vector<DmmConfig> never_submitted = {alloc::drr_paper_config(),
                                            alloc::minimal_config()};
  for (DmmConfig& cfg : never_submitted) cfg.chunk_bytes *= 8;
  for (int round = 0; round < 3; ++round) {
    auto trace = std::make_unique<AllocTrace>(workload_trace("drr", 8000));
    SearchContext ctx(*trace, trace->fingerprint(), opts, pool);
    BeamSearch greedy(1);
    EXPECT_FALSE(greedy.step(ctx, 1)) << "an ordered walk is indivisible";
    // Hints still running when the search ends: finish() must wait.
    const EvalEngine::HintStats before = pool.hint_stats();
    ctx.hint({never_submitted[0], 0});
    ctx.hint({never_submitted[1], 1});
    ASSERT_EQ(pool.hint_stats().queued, before.queued + 2);
    ASSERT_TRUE(hints_started(pool, before.started + 2));
    const ExplorationResult r = ctx.finish();
    trace.reset();
    EXPECT_GT(r.simulations, 0u);
  }
  const EvalEngine::HintStats hs = pool.hint_stats();
  EXPECT_LE(hs.adopted, hs.started);
  EXPECT_LE(hs.started, hs.queued);
}

TEST(EngineHint, OneWorkerEngineIgnoresHints) {
  const AllocTrace trace = workload_trace("drr", 2000);
  SharedScoreCache store;
  SharedScoreCache::Session cache = store.begin_search(1);
  EvalEngine serial(1);
  serial.hint(trace, {alloc::drr_paper_config(), 0}, &cache);
  EXPECT_EQ(serial.hint_stats().queued, 0u);
  EXPECT_EQ(store.stats().insertions, 0u);
}

// ---------------------------------------------------------------------------
// The in-flight table: one replay per (trace, canonical vector)
// ---------------------------------------------------------------------------

TEST(EngineInflight, HintOfAVectorInFlightInTheOpenSessionIsNotQueued) {
  const AllocTrace trace = workload_trace("drr", 2000);
  SharedScoreCache store;
  SharedScoreCache::Session cache = store.begin_search(1);
  EvalEngine pool(2);
  const DmmConfig cfg = alloc::drr_paper_config();
  pool.stream_begin(trace, &cache);
  pool.stream_submit({cfg, 0});
  pool.hint(trace, {cfg, 1}, &cache);
  EXPECT_EQ(pool.hint_stats().queued, 0u);
  const std::vector<EvalOutcome> got = pool.stream_drain();
  pool.settle_hints();
  EXPECT_FALSE(got[0].from_cache);
  EXPECT_EQ(pool.hint_stats().queued, 0u);
  EXPECT_EQ(pool.hint_stats().adopted, 0u);
}

TEST(EngineInflight, SameHintTwiceIsQueuedOnce) {
  const AllocTrace trace = workload_trace("drr", 2000);
  SharedScoreCache store;
  SharedScoreCache::Session cache = store.begin_search(1);
  EvalEngine pool(2);
  DmmConfig cfg = alloc::drr_paper_config();
  cfg.fit = alloc::FitAlgorithm::kBestFit;
  pool.hint(trace, {cfg, 0}, &cache);
  pool.hint(trace, {cfg, 1}, &cache);
  EXPECT_EQ(pool.hint_stats().queued, 1u);
  pool.settle_hints();
  EXPECT_EQ(pool.hint_stats().queued, 1u);
  EXPECT_LE(pool.hint_stats().started, 1u);
  EXPECT_EQ(store.stats().insertions, 0u);
}

TEST(EngineInflight, RunningHintIsAdoptedOnceAndItsDuplicateServedFromIt) {
  const AllocTrace trace = workload_trace("drr", 20000);
  DmmConfig cfg = alloc::drr_paper_config();
  cfg.fit = alloc::FitAlgorithm::kBestFit;
  const std::vector<EvalJob> jobs = {{cfg, 1}, {cfg, 2}};

  EvalEngine serial(1);
  SharedScoreCache plain_store;
  SharedScoreCache::Session plain = plain_store.begin_search(1);
  const std::vector<EvalOutcome> want = serial.evaluate(trace, jobs, &plain);

  EvalEngine pool(2);
  SharedScoreCache store;
  SharedScoreCache::Session cache = store.begin_search(1);
  pool.hint(trace, {cfg, 100}, &cache);
  ASSERT_TRUE(hints_started(pool, 1));
  const std::vector<EvalOutcome> got = pool.evaluate(trace, jobs, &cache);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_outcome(got[i], want[i], "job " + std::to_string(i));
  }
  EXPECT_FALSE(got[0].from_cache) << "the adopting submit is a simulation";
  EXPECT_TRUE(got[1].from_cache) << "the second submit is a duplicate";
  pool.settle_hints();
  expect_same_stats(store.stats(), plain_store.stats(), "hinted vs serial");
  const EvalEngine::HintStats hs = pool.hint_stats();
  EXPECT_EQ(hs.queued, 1u);
  EXPECT_EQ(hs.started, 1u);
  EXPECT_EQ(hs.adopted, 1u);
}

TEST(EngineInflight, WithoutACacheSessionDuplicatesBothReplay) {
  const AllocTrace trace = workload_trace("drr", 2000);
  const DmmConfig cfg = alloc::drr_paper_config();
  for (const unsigned threads : {1u, 2u}) {
    const std::string what = std::to_string(threads) + " thread(s)";
    const std::unique_ptr<EvalEngine> engine = make_engine(threads);
    const std::vector<EvalOutcome> got =
        engine->evaluate(trace, {{cfg, 0}, {cfg, 1}});
    ASSERT_EQ(got.size(), 2u) << what;
    EXPECT_FALSE(got[0].from_cache) << what;
    EXPECT_FALSE(got[1].from_cache) << what;
    EXPECT_EQ(got[1].tag, 1u) << what;
    EXPECT_EQ(got[0].sim.peak_footprint, got[1].sim.peak_footprint) << what;
    EXPECT_EQ(got[0].work_steps, got[1].work_steps) << what;
  }
}

}  // namespace
}  // namespace dmm::core
