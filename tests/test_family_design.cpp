// The multi-trace family layer (eval_engine.h family types, SearchContext
// family mode, design_manager_family):
//  * aggregate_family folds member outcomes deterministically (max-peak
//    and weighted-sum, feasibility = feasible everywhere),
//  * family_fingerprint separates member sets, orders, weights, and
//    aggregate kinds — the trace-set cache-key extension,
//  * design_manager_family over >= 2 traces is bit-identical across
//    1/2/4/8 threads and across cache scopes, returns per-trace
//    breakdowns that match direct replays, and with seeded solo bests is
//    never (beyond the 1% tie band) worse family-wide than any seed,
//  * family searches ride the per-trace cache entries single-trace
//    searches share, and a repeated family run replays nothing,
//  * malformed families (empty, weight-count mismatch) and options outside
//    their mode (family-only fields on one trace and vice versa, unusable
//    weights) throw instead of designing against garbage.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dmm/core/methodology.h"
#include "dmm/core/search.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;

AllocTrace sized_trace(std::size_t events, unsigned seed) {
  AllocTrace t;
  std::mt19937 rng(seed);
  std::vector<std::uint32_t> live;
  std::uint32_t next_id = 0;
  while (t.size() < events) {
    if (live.empty() || rng() % 3 != 0) {
      const std::uint32_t sizes[] = {48, 160, 640, 1024, 1600, 2048, 6000};
      t.record_alloc(next_id, sizes[rng() % 7] + rng() % 96);
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

std::vector<AllocTrace> small_family() {
  return {sized_trace(1500, 11), sized_trace(1500, 22),
          sized_trace(1500, 33)};
}

// ---------------------------------------------------------------------------
// aggregate_family
// ---------------------------------------------------------------------------

TEST(AggregateFamily, MaxPeakTakesWorstCaseFootprints) {
  std::vector<FamilyEvalMember> members(2);
  std::vector<EvalOutcome> outs(2);
  outs[0].sim.peak_footprint = 100;
  outs[0].sim.final_footprint = 10;
  outs[0].sim.avg_footprint = 50.0;
  outs[0].sim.failed_allocs = 0;
  outs[0].work_steps = 7;
  outs[0].from_cache = true;
  outs[1].sim.peak_footprint = 300;
  outs[1].sim.final_footprint = 5;
  outs[1].sim.avg_footprint = 40.0;
  outs[1].sim.failed_allocs = 2;
  outs[1].work_steps = 11;
  outs[1].from_cache = false;

  const EvalOutcome agg =
      aggregate_family(9, outs, members, FamilyAggregate::kMaxPeak);
  EXPECT_EQ(agg.tag, 9u);
  EXPECT_EQ(agg.sim.peak_footprint, 300u);
  EXPECT_EQ(agg.sim.final_footprint, 10u);
  EXPECT_DOUBLE_EQ(agg.sim.avg_footprint, 50.0);
  EXPECT_EQ(agg.sim.failed_allocs, 2u) << "infeasible anywhere = infeasible";
  EXPECT_EQ(agg.work_steps, 18u) << "work always sums";
  EXPECT_FALSE(agg.from_cache) << "any member replay makes the fold a replay";
}

TEST(AggregateFamily, WeightedSumHonoursWeights) {
  std::vector<FamilyEvalMember> members(2);
  members[0].weight = 1.0;
  members[1].weight = 3.0;
  std::vector<EvalOutcome> outs(2);
  outs[0].sim.peak_footprint = 100;
  outs[0].sim.avg_footprint = 10.0;
  outs[0].from_cache = true;
  outs[1].sim.peak_footprint = 200;
  outs[1].sim.avg_footprint = 20.0;
  outs[1].from_cache = true;

  const EvalOutcome agg =
      aggregate_family(0, outs, members, FamilyAggregate::kWeightedSum);
  EXPECT_EQ(agg.sim.peak_footprint, 700u);  // 1*100 + 3*200
  EXPECT_DOUBLE_EQ(agg.sim.avg_footprint, 70.0);
  EXPECT_TRUE(agg.from_cache);
}

// ---------------------------------------------------------------------------
// family_fingerprint — the cache-key extension for trace sets
// ---------------------------------------------------------------------------

TEST(FamilyFingerprint, SeparatesSetsOrdersWeightsAndAggregates) {
  FamilyEvalMember a;
  a.fingerprint = 0x1111;
  FamilyEvalMember b;
  b.fingerprint = 0x2222;
  const auto fp = [](std::vector<FamilyEvalMember> m, FamilyAggregate agg) {
    return family_fingerprint(m, agg);
  };
  const std::uint64_t ab = fp({a, b}, FamilyAggregate::kMaxPeak);
  EXPECT_NE(ab, fp({b, a}, FamilyAggregate::kMaxPeak)) << "order matters";
  EXPECT_NE(ab, fp({a}, FamilyAggregate::kMaxPeak)) << "membership matters";
  EXPECT_NE(ab, fp({a, b}, FamilyAggregate::kWeightedSum))
      << "aggregate kind matters";
  FamilyEvalMember heavy = b;
  heavy.weight = 2.0;
  EXPECT_NE(ab, fp({a, heavy}, FamilyAggregate::kMaxPeak))
      << "weights matter";
  EXPECT_NE(ab, a.fingerprint) << "family keys never alias member keys";
  EXPECT_EQ(ab, fp({a, b}, FamilyAggregate::kMaxPeak)) << "and it is stable";
}

// Snapshots written by earlier builds key family entries under these
// values, so the byte stream the fingerprint hashes must never move.
TEST(FamilyFingerprint, ValueIsPinned) {
  FamilyEvalMember a;
  a.fingerprint = 0x0123456789abcdefull;
  FamilyEvalMember b;
  b.fingerprint = 0xfedcba9876543210ull;
  b.weight = 0.5;
  EXPECT_EQ(family_fingerprint({a, b}, FamilyAggregate::kWeightedSum),
            0x2e810a3f52995746ull);
  EXPECT_EQ(family_fingerprint({a, b}, FamilyAggregate::kMaxPeak),
            0x52da4f24154d1d37ull);
}

// ---------------------------------------------------------------------------
// design_manager_family
// ---------------------------------------------------------------------------

void expect_same_family_result(const FamilyDesignResult& a,
                               const FamilyDesignResult& b,
                               const std::string& what) {
  EXPECT_EQ(a.best, b.best) << what;
  EXPECT_EQ(a.feasible, b.feasible) << what;
  EXPECT_DOUBLE_EQ(a.aggregate_objective, b.aggregate_objective) << what;
  EXPECT_EQ(a.search.evals_to_best, b.search.evals_to_best) << what;
  ASSERT_EQ(a.per_trace.size(), b.per_trace.size()) << what;
  for (std::size_t i = 0; i < a.per_trace.size(); ++i) {
    EXPECT_EQ(a.per_trace[i].fingerprint, b.per_trace[i].fingerprint) << what;
    EXPECT_EQ(a.per_trace[i].sim.peak_footprint,
              b.per_trace[i].sim.peak_footprint)
        << what;
    EXPECT_EQ(a.per_trace[i].work_steps, b.per_trace[i].work_steps) << what;
  }
}

TEST(DesignManagerFamily, BitIdenticalAcrossThreadCounts) {
  const std::vector<AllocTrace> traces = small_family();
  // An ordered walk and a streaming search: both family paths.
  for (const char* spec : {"beam:2", "anneal"}) {
    FamilyDesignResult baseline;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      DesignOptions opts;
      opts.explorer_options.num_threads = threads;
      opts.explorer_options.search = *parse_search_spec(spec);
      FamilyDesignResult r = design_manager_family(traces, opts);
      if (threads == 1) {
        EXPECT_TRUE(r.feasible) << spec;
        baseline = std::move(r);
        continue;
      }
      expect_same_family_result(r, baseline,
                                std::string(spec) + " family at " +
                                    std::to_string(threads) + " threads");
      // Member replay/hit accounting is also thread-invariant (the
      // engine's caching protocol is scheduled on the coordinating
      // thread).
      EXPECT_EQ(r.search.simulations, baseline.search.simulations) << spec;
      EXPECT_EQ(r.search.cache_hits, baseline.search.cache_hits) << spec;
    }
  }
}

TEST(DesignManagerFamily, BitIdenticalAcrossCacheScopes) {
  const std::vector<AllocTrace> traces = small_family();
  DesignOptions per_search;
  per_search.explorer_options.search = *parse_search_spec("greedy");
  DesignOptions shared = per_search;
  shared.explorer_options.shared_cache = std::make_shared<SharedScoreCache>();
  DesignOptions uncached = per_search;
  uncached.explorer_options.cache = false;
  const FamilyDesignResult a = design_manager_family(traces, per_search);
  const FamilyDesignResult b = design_manager_family(traces, shared);
  const FamilyDesignResult c = design_manager_family(traces, uncached);
  expect_same_family_result(b, a, "shared vs per-search");
  expect_same_family_result(c, a, "uncached vs per-search");
}

TEST(DesignManagerFamily, PerTraceBreakdownMatchesDirectReplays) {
  const std::vector<AllocTrace> traces = small_family();
  DesignOptions opts;
  const FamilyDesignResult family = design_manager_family(traces, opts);
  ASSERT_EQ(family.per_trace.size(), traces.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(family.per_trace[i].fingerprint, traces[i].fingerprint());
    const EvalOutcome out = score_candidate(traces[i], {family.best, 0});
    const SimResult& direct = out.sim;
    EXPECT_EQ(family.per_trace[i].sim.peak_footprint, direct.peak_footprint);
    EXPECT_DOUBLE_EQ(family.per_trace[i].sim.avg_footprint,
                     direct.avg_footprint);
    EXPECT_EQ(family.per_trace[i].work_steps, out.work_steps);
    EXPECT_TRUE(family.per_trace[i].feasible());
    worst = std::max(worst,
                     static_cast<double>(direct.peak_footprint));
  }
  // kMaxPeak: the aggregate objective IS the worst member peak.
  EXPECT_DOUBLE_EQ(family.aggregate_objective, worst);
}

TEST(DesignManagerFamily, SeededSolosBoundTheFamilyRegret) {
  const std::vector<AllocTrace> traces = small_family();
  // The paper's flow per trace...
  DesignOptions opts;
  std::vector<DmmConfig> solos;
  BeamSearch greedy(1, paper_order());
  for (const AllocTrace& t : traces) {
    solos.push_back(run_search(t, greedy).best);
  }
  // ... seeds the family search, so the family-wide worst peak can exceed
  // no seed's worst peak beyond the comparator's 1% tie band.
  opts.seed_candidates = solos;
  const FamilyDesignResult family = design_manager_family(traces, opts);
  ASSERT_TRUE(family.feasible);
  if (family.best_seed >= 0) {
    // A seed won the race: the attribution must say so — the best IS that
    // seed and no search step log claims it.
    ASSERT_LT(static_cast<std::size_t>(family.best_seed), solos.size());
    EXPECT_EQ(family.best, solos[static_cast<std::size_t>(family.best_seed)]);
    EXPECT_TRUE(family.search.steps.empty());
  }
  for (const DmmConfig& solo : solos) {
    double solo_worst = 0.0;
    for (const AllocTrace& t : traces) {
      const EvalOutcome out = score_candidate(t, {solo, 0});
      solo_worst =
          std::max(solo_worst, static_cast<double>(out.sim.peak_footprint));
    }
    EXPECT_LE(family.aggregate_objective, solo_worst * 1.0101);
  }
}

TEST(DesignManagerFamily, RidesAndFeedsThePerTraceCacheEntries) {
  const std::vector<AllocTrace> traces = small_family();
  const auto cache = std::make_shared<SharedScoreCache>();
  DesignOptions opts;
  opts.explorer_options.shared_cache = cache;
  const FamilyDesignResult cold = design_manager_family(traces, opts);
  EXPECT_GT(cold.search.simulations, 0u);

  // A single-trace search over one member now rides the family's member
  // entries: the first probes of the walk are the same repaired vectors.
  ExplorerOptions single;
  single.shared_cache = cache;
  BeamSearch greedy(1, paper_order());
  const ExplorationResult walk = run_search(traces[0], greedy, single);
  EXPECT_GT(walk.cross_search_hits, 0u)
      << "family member replays must be shared with single-trace searches";

  // And a repeated family run is served whole from the aggregate-level
  // entries keyed by the trace-set fingerprint.
  const FamilyDesignResult warm = design_manager_family(traces, opts);
  expect_same_family_result(warm, cold, "warm vs cold family design");
  EXPECT_EQ(warm.search.simulations, 0u)
      << "the second family run must replay nothing";
  EXPECT_EQ(warm.search.cache_hits, 0u)
      << "every candidate is served whole, so member caches are untouched";
  EXPECT_GT(warm.search.family_hits, cold.search.family_hits)
      << "whole-candidate hits are counted apart from member cache_hits "
         "(the cold run's own duplicate proposals already score some)";
  EXPECT_GT(warm.search.cross_search_hits, 0u);
}

TEST(DesignManagerFamily, WeightedSumUsesTheWeights) {
  const std::vector<AllocTrace> traces = {sized_trace(1200, 5),
                                          sized_trace(1200, 6)};
  DesignOptions opts;
  opts.aggregate = FamilyAggregate::kWeightedSum;
  opts.weights = {1.0, 2.0};
  const FamilyDesignResult r = design_manager_family(traces, opts);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.per_trace.size(), 2u);
  // The reported aggregate objective is the weighted sum of member peaks.
  const double expected =
      1.0 * static_cast<double>(r.per_trace[0].sim.peak_footprint) +
      2.0 * static_cast<double>(r.per_trace[1].sim.peak_footprint);
  EXPECT_DOUBLE_EQ(r.aggregate_objective, expected);
}

TEST(DesignManagerFamily, RejectsMalformedFamilies) {
  EXPECT_THROW((void)design_manager_family({}, {}), std::invalid_argument);
  const std::vector<AllocTrace> traces = {sized_trace(400, 1),
                                          sized_trace(400, 2)};
  DesignOptions opts;
  opts.weights = {1.0};  // two traces, one weight
  EXPECT_THROW((void)design_manager_family(traces, opts),
               std::invalid_argument);
  opts.weights = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)design_manager_family(traces, opts),
               std::invalid_argument);
}

TEST(DesignOptionsModes, FieldsOutsideTheirModeThrow) {
  // One trace is a phased run, two or more a family run; a field that only
  // applies to the other mode — or an unusable weight — must throw rather
  // than be silently ignored.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<AllocTrace> traces = {sized_trace(200, 1),
                                          sized_trace(200, 2)};
  // (trace count, options) pairs DesignRun must reject.
  std::vector<std::pair<std::size_t, DesignOptions>> cases;
  const auto add = [&cases](std::size_t trace_count) -> DesignOptions& {
    return cases.emplace_back(trace_count, DesignOptions{}).second;
  };
  add(2).validate = true;
  add(2).detect_phases = true;
  add(2).weights = {kNaN, 1.0};
  add(2).weights = {1.0, -3.0};
  add(2).weights = {kInf, 1.0};
  add(2).explorer_options.time_weight = -1.0;
  add(1).weights = {1.0};
  add(1).seed_candidates = {alloc::drr_paper_config()};
  add(1).aggregate = FamilyAggregate::kWeightedSum;
  add(1).explorer_options.time_weight = kNaN;
  add(1).explorer_options.time_weight = kInf;
  add(0);  // no traces at all
  EvalEngine engine(1);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::span<const AllocTrace> span(traces.data(), cases[i].first);
    EXPECT_THROW((void)std::make_unique<DesignRun>(span, cases[i].second,
                                                   engine),
                 std::invalid_argument)
        << "case " << i;
  }
  // The same fields in their own mode are accepted.
  DesignOptions family;
  family.aggregate = FamilyAggregate::kWeightedSum;
  family.weights = {0.0, 2.0};
  family.seed_candidates = {alloc::drr_paper_config()};
  EXPECT_NO_THROW((void)std::make_unique<DesignRun>(
      std::span<const AllocTrace>(traces), family, engine));
  DesignOptions single;
  single.validate = true;
  single.detect_phases = true;
  single.explorer_options.time_weight = 0.5;
  EXPECT_NO_THROW((void)std::make_unique<DesignRun>(
      std::span<const AllocTrace>(traces.data(), 1), single, engine));
}

TEST(DesignManagerFamily, PersistsAcrossProcessesViaCacheFile) {
  const std::vector<AllocTrace> traces = {sized_trace(1000, 7),
                                          sized_trace(1000, 8)};
  const std::string path =
      ::testing::TempDir() + "dmm_family_design.snapshot";
  std::remove(path.c_str());
  DesignOptions opts;
  opts.cache_file = path;
  const FamilyDesignResult cold = design_manager_family(traces, opts);
  EXPECT_GT(cold.search.simulations, 0u);
  const FamilyDesignResult warm = design_manager_family(traces, opts);
  expect_same_family_result(warm, cold, "warm vs cold via snapshot");
  EXPECT_EQ(warm.search.simulations, 0u)
      << "a snapshot-warmed family run must replay nothing";
  EXPECT_GT(warm.search.persisted_hits, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dmm::core
