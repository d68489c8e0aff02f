#include <gtest/gtest.h>

#include <random>

#include "dmm/core/methodology.h"
#include "dmm/core/search.h"

namespace dmm::core {
namespace {

// DRR-flavoured synthetic trace: wildly variable packet sizes with a
// churning queue — the behaviour the paper's Sec. 5 walk optimises for.
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

class ExplorerTest : public ::testing::Test {
 protected:
  ExplorerTest() : trace_(variable_size_trace(20000)) {}
  AllocTrace trace_;
};

TEST_F(ExplorerTest, OrderedTraversalDecidesEveryTree) {
  BeamSearch greedy(1);
  const ExplorationResult r = run_search(trace_, greedy);
  EXPECT_EQ(r.steps.size(), paper_order().size());
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    EXPECT_EQ(r.steps[i].tree, paper_order()[i]);
    EXPECT_GE(r.steps[i].chosen, 0);
  }
  EXPECT_TRUE(alloc::is_valid(r.best))
      << "the traversal must land on a coherent vector: "
      << alloc::signature(r.best);
  EXPECT_TRUE(r.feasible) << "this trace is servable, so best must be too";
  EXPECT_GT(r.simulations, 15u);
}

TEST_F(ExplorerTest, ChoosesDefragmentationForVariableSizes) {
  // The Sec. 5 walk: variable sizes => split+coalesce always, not fixed,
  // shrink-capable pools.
  BeamSearch greedy(1);
  const ExplorationResult r = run_search(trace_, greedy);
  EXPECT_EQ(r.best.block_sizes, alloc::BlockSizes::kMany);
  EXPECT_EQ(r.best.flexible, alloc::FlexibleBlockSize::kSplitAndCoalesce);
  EXPECT_EQ(r.best.split_when, alloc::SplitWhen::kAlways);
  EXPECT_EQ(r.best.coalesce_when, alloc::CoalesceWhen::kAlways);
  EXPECT_EQ(r.best.adaptivity, alloc::PoolAdaptivity::kGrowAndShrink);
}

TEST_F(ExplorerTest, PublishedOrderBeatsOrMatchesWrongOrder) {
  BeamSearch published(1, paper_order());
  BeamSearch wrong(1, fig4_wrong_order());
  const ExplorationResult good = run_search(trace_, published);
  const ExplorationResult bad = run_search(trace_, wrong);
  EXPECT_LE(good.best_sim.peak_footprint, bad.best_sim.peak_footprint)
      << "Fig. 4: deciding A3/A4 first must not win";
}

TEST_F(ExplorerTest, GreedyOrderedIsCloseToExhaustiveOnSubspace) {
  // Exhaustive ground truth over the highest-impact trees; the greedy
  // ordered traversal must land within 10% of it.
  ExhaustiveSearch exhaustive({TreeId::kA2, TreeId::kA5, TreeId::kE2,
                               TreeId::kD2, TreeId::kB4, TreeId::kC1});
  BeamSearch walk(1);
  const ExplorationResult truth = run_search(trace_, exhaustive);
  const ExplorationResult greedy = run_search(trace_, walk);
  EXPECT_LE(static_cast<double>(greedy.best_sim.peak_footprint),
            1.10 * static_cast<double>(truth.best_sim.peak_footprint));
}

TEST_F(ExplorerTest, GreedyBeatsRandomSearchBudgetForBudget) {
  BeamSearch walk(1);
  const ExplorationResult greedy = run_search(trace_, walk);
  // Give random search the same simulation budget.
  RandomSearch sampler(greedy.simulations, /*seed=*/11);
  const ExplorationResult random = run_search(trace_, sampler);
  EXPECT_LE(greedy.best_sim.peak_footprint,
            random.best_sim.peak_footprint * 105 / 100)
      << "ordered traversal should not lose to random sampling";
}

TEST_F(ExplorerTest, ScoreIsDeterministic) {
  const EvalOutcome a = score_candidate(trace_, {alloc::drr_paper_config(), 0});
  const EvalOutcome b = score_candidate(trace_, {alloc::drr_paper_config(), 0});
  EXPECT_EQ(a.sim.peak_footprint, b.sim.peak_footprint);
}

TEST_F(ExplorerTest, TimeWeightTradesFootprintForSpeed) {
  // Sec. 5: "trade-offs between the relevant design factors are possible".
  ExplorerOptions footprint_only;
  ExplorerOptions time_heavy;
  time_heavy.time_weight = 1000.0;
  BeamSearch walk(1);
  const ExplorationResult a = run_search(trace_, walk, footprint_only);
  const ExplorationResult b = run_search(trace_, walk, time_heavy);
  EXPECT_LE(a.best_sim.peak_footprint, b.best_sim.peak_footprint)
      << "pure-footprint search wins on footprint";
  EXPECT_LE(b.work_steps, a.work_steps)
      << "time-weighted search wins on manager work";
}

TEST(Methodology, SinglePhaseProducesOneAtomicManager) {
  const AllocTrace trace = variable_size_trace(8000);
  const MethodologyResult r = design_manager(trace);
  EXPECT_EQ(r.phase_configs.size(), 1u);
  sysmem::SystemArena arena;
  auto mgr = r.make_manager(arena);
  void* p = mgr->allocate(100);
  ASSERT_NE(p, nullptr);
  mgr->deallocate(p);
}

TEST(Methodology, MultiPhaseProducesGlobalManager) {
  // Phase 0: packet churn; phase 1: large stable buffers.
  AllocTrace trace = variable_size_trace(6000);
  {
    AllocTrace big;
    std::uint32_t id = 0;
    for (int wave = 0; wave < 30; ++wave) {
      std::vector<std::uint32_t> ids;
      for (int i = 0; i < 20; ++i) {
        big.record_alloc(id, 20000 + static_cast<std::uint32_t>(i) * 64);
        ids.push_back(id++);
      }
      for (std::uint32_t x : ids) big.record_free(x);
    }
    trace.append(big, /*phase_offset=*/1);
  }
  const MethodologyResult r = design_manager(trace);
  ASSERT_EQ(r.phase_configs.size(), 2u);
  sysmem::SystemArena arena;
  auto mgr = r.make_manager(arena);
  EXPECT_EQ(mgr->name(), "custom-global");
  // The designed manager must beat the paper's reference vector run as a
  // single atomic manager?  Not necessarily — but it must at least handle
  // the trace without failures.
  const SimResult sim = simulate(trace, *mgr);
  EXPECT_EQ(sim.failed_allocs, 0u);
}

TEST(Methodology, DetectPhasesPathWorksEndToEnd) {
  AllocTrace trace = variable_size_trace(6000, 5);
  {
    AllocTrace big;
    std::uint32_t id = 0;
    for (int i = 0; i < 2000; ++i) {
      big.record_alloc(id, 30000);
      big.record_free(id++);
    }
    trace.append(big, /*phase_offset=*/0);  // no annotation: detector's job
  }
  DesignOptions opts;
  opts.detect_phases = true;
  const MethodologyResult r = design_manager(trace, opts);
  EXPECT_GE(r.phase_configs.size(), 2u)
      << "the detector must find the behaviour shift";
}

}  // namespace
}  // namespace dmm::core
