#include "dmm/core/phase.h"

#include <gtest/gtest.h>

#include <random>

#include "dmm/core/methodology.h"
#include "dmm/workloads/workload.h"

namespace dmm::core {
namespace {

// Two behaviourally distinct phases: small packets then large buffers.
AllocTrace two_phase_trace(std::size_t per_phase) {
  AllocTrace t;
  std::mt19937 rng(7);
  std::uint32_t id = 0;
  for (std::size_t i = 0; i < per_phase; ++i) {
    const std::uint32_t a = id++;
    t.record_alloc(a, 40 + rng() % 64);
    if (i % 2 == 1) t.record_free(a);
  }
  for (std::size_t i = 0; i < per_phase; ++i) {
    const std::uint32_t a = id++;
    t.record_alloc(a, 16384 + rng() % 8192);
    t.record_free(a);
  }
  t.close_leaks();
  return t;
}

TEST(PhaseDetector, SinglePhaseForUniformBehaviour) {
  AllocTrace t;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    t.record_alloc(i, 64);
    t.record_free(i);
  }
  const auto spans = detect_phases(t);
  EXPECT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].first_event, 0u);
  EXPECT_EQ(spans[0].last_event, t.size() - 1);
}

TEST(PhaseDetector, FindsTheBehaviourShift) {
  const AllocTrace t = two_phase_trace(4000);
  PhaseDetectorOptions opts;
  opts.window = 1024;
  const auto spans = detect_phases(t, opts);
  ASSERT_GE(spans.size(), 2u) << "small-packet vs big-buffer phases";
  // The boundary must fall near the behavioural switch (the first phase
  // emits 1.5 events per object, the second 2).
  const std::size_t switch_event = 4000 + 2000;  // allocs + odd frees
  const std::size_t boundary = spans[1].first_event;
  EXPECT_NEAR(static_cast<double>(boundary),
              static_cast<double>(switch_event), 1500.0);
}

TEST(PhaseDetector, SpansTileTheTrace) {
  const AllocTrace t = two_phase_trace(3000);
  const auto spans = detect_phases(t);
  std::size_t expect_start = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].first_event, expect_start);
    EXPECT_EQ(spans[i].phase, i);
    expect_start = spans[i].last_event + 1;
  }
  EXPECT_EQ(expect_start, t.size());
}

TEST(PhaseDetector, ApplyPhasesRewritesEvents) {
  AllocTrace t = two_phase_trace(3000);
  const auto spans = detect_phases(t);
  apply_phases(t, spans);
  EXPECT_EQ(t.stats().phases, spans.size());
  EXPECT_TRUE(t.validate());
}

TEST(SplitByPhase, ObjectsFollowTheirAllocationPhase) {
  AllocTrace t;
  t.record_alloc(0, 100, 0);
  t.record_alloc(1, 200, 0);
  t.record_alloc(2, 300, 1);
  t.record_free(1, 1);  // allocated in phase 0, freed in phase 1
  t.record_free(2, 1);
  t.record_free(0, 1);
  const auto subs = split_by_phase(t);
  ASSERT_EQ(subs.size(), 2u);
  // Phase 0 sub-trace owns objects 0 and 1 including their frees.
  EXPECT_EQ(subs[0].stats().allocs, 2u);
  EXPECT_EQ(subs[0].stats().frees, 2u);
  EXPECT_EQ(subs[1].stats().allocs, 1u);
  EXPECT_EQ(subs[1].stats().frees, 1u);
  EXPECT_TRUE(subs[0].validate());
  EXPECT_TRUE(subs[1].validate());
}

TEST(SplitByPhase, SparseIdsSplitLikeDenseOnes) {
  // Ids far apart take the hash-map path; the split must not change.
  AllocTrace dense = two_phase_trace(500);
  apply_phases(dense, detect_phases(dense));
  AllocTrace sparse = dense;
  for (AllocEvent& e : sparse.events()) e.id = e.id * 100003u + 7u;
  ASSERT_FALSE(sparse.id_bounds().dense());
  const auto a = split_by_phase(dense);
  const auto b = split_by_phase(sparse);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].size(), b[p].size()) << "phase " << p;
    for (std::size_t i = 0; i < a[p].size(); ++i) {
      AllocEvent want = a[p].events()[i];
      want.id = want.id * 100003u + 7u;
      EXPECT_TRUE(b[p].events()[i] == want) << "phase " << p << " event " << i;
    }
  }
}

TEST(SplitByPhase, SubTraceDemandSumsCoverTotal) {
  const AllocTrace t = two_phase_trace(2000);
  AllocTrace annotated = t;
  apply_phases(annotated, detect_phases(annotated));
  const auto subs = split_by_phase(annotated);
  std::uint64_t allocs = 0;
  for (const auto& s : subs) allocs += s.stats().allocs;
  EXPECT_EQ(allocs, t.stats().allocs);
}

TEST(SplitByPhase, CaseStudySplitsKeepTheirEvents) {
  // A trace with one phase and no orphan free splits into one sub-trace
  // equal to it event for event.  render3d annotates two phases; its
  // sub-traces keep the fingerprints (score-cache keys) they have always
  // had.
  std::size_t whole = 0;
  for (const workloads::Workload& w : workloads::case_studies()) {
    const AllocTrace t = workloads::record_trace(w, /*seed=*/1);
    const auto subs = split_by_phase(t);
    if (t.stats().phases == 1 && t.validate()) {
      ASSERT_EQ(subs.size(), 1u) << w.name;
      EXPECT_TRUE(subs[0].events() == t.events()) << w.name;
      ++whole;
    }
    if (w.name == "render3d") {
      ASSERT_EQ(subs.size(), 2u);
      EXPECT_EQ(subs[0].fingerprint(), 0x979e9300ededb6adull);
      EXPECT_EQ(subs[1].fingerprint(), 0x9de0e03f2dd148e0ull);
      EXPECT_EQ(subs[0].size() + subs[1].size(), t.size());
    }
  }
  EXPECT_EQ(whole, 2u) << "drr and recon3d record one phase";
}

TEST(AnnotatedPhases, AnAbsentPhaseGetsNoSpan) {
  // set_phase(1) immediately followed by set_phase(2): phase 1 has no
  // events, and must neither get a span nor shift the spans after it.
  // Events 0..7 are phase 0, events 8..13 phase 2.
  AllocTrace t;
  for (std::uint32_t i = 0; i < 4; ++i) t.record_alloc(i, 64, 0);
  for (std::uint32_t i = 0; i < 4; ++i) t.record_free(i, 0);
  for (std::uint32_t i = 4; i < 7; ++i) t.record_alloc(i, 4096, 2);
  for (std::uint32_t i = 4; i < 7; ++i) t.record_free(i, 2);
  const MethodologyResult design = design_manager(t);
  ASSERT_EQ(design.phases.size(), 2u);
  EXPECT_EQ(design.phases[0].phase, 0u);
  EXPECT_EQ(design.phases[0].first_event, 0u);
  EXPECT_EQ(design.phases[0].last_event, 7u);
  EXPECT_EQ(design.phases[1].phase, 2u);
  EXPECT_EQ(design.phases[1].first_event, 8u);
  EXPECT_EQ(design.phases[1].last_event, 13u);
  // Configs stay indexed by phase id: the empty phase 1 keeps the
  // defaults, unsearched.
  ASSERT_EQ(design.phase_configs.size(), 3u);
  EXPECT_EQ(design.phase_configs[1], ExplorerOptions{}.defaults);
  EXPECT_EQ(design.phase_results[1].simulations, 0u);
  EXPECT_GT(design.phase_results[2].simulations, 0u);
}

}  // namespace
}  // namespace dmm::core
