#include "dmm/core/trace.h"

#include <gtest/gtest.h>

#include <string>

namespace dmm::core {
namespace {

AllocTrace simple_trace() {
  AllocTrace t;
  t.record_alloc(0, 100, 0);
  t.record_alloc(1, 200, 0);
  t.record_free(0, 0);
  t.record_alloc(2, 50, 1);
  t.record_free(2, 1);
  t.record_free(1, 1);
  return t;
}

TEST(AllocTrace, ValidatesWellFormedTraces) {
  EXPECT_TRUE(simple_trace().validate());
}

TEST(AllocTrace, RejectsDoubleFree) {
  AllocTrace t;
  t.record_alloc(0, 100);
  t.record_free(0);
  t.record_free(0);
  std::string why;
  EXPECT_FALSE(t.validate(&why));
  EXPECT_NE(why.find("dead id"), std::string::npos);
}

TEST(AllocTrace, RejectsIdReuseWhileLive) {
  AllocTrace t;
  t.record_alloc(0, 100);
  t.record_alloc(0, 200);
  EXPECT_FALSE(t.validate());
}

TEST(AllocTrace, CloseLeaksFreesEverything) {
  AllocTrace t;
  t.record_alloc(0, 100);
  t.record_alloc(1, 100);
  t.record_free(0);
  t.close_leaks();
  EXPECT_TRUE(t.validate());
  const TraceStats s = t.stats();
  EXPECT_EQ(s.allocs, s.frees);
}

TEST(AllocTrace, StatsComputeDemandAndHistogram) {
  const TraceStats s = simple_trace().stats();
  EXPECT_EQ(s.events, 6u);
  EXPECT_EQ(s.allocs, 3u);
  EXPECT_EQ(s.frees, 3u);
  EXPECT_EQ(s.peak_live_bytes, 300u) << "100+200 live simultaneously";
  EXPECT_EQ(s.peak_live_blocks, 2u);
  EXPECT_EQ(s.distinct_sizes, 3u);
  EXPECT_EQ(s.min_size, 50u);
  EXPECT_EQ(s.max_size, 200u);
  EXPECT_EQ(s.phases, 2u);
  EXPECT_NEAR(s.mean_size, (100.0 + 200.0 + 50.0) / 3.0, 1e-9);
  EXPECT_EQ(s.top_sizes.size(), 3u);
}

TEST(AllocTrace, LifetimeIsAllocToFreeDistance) {
  AllocTrace t;
  t.record_alloc(0, 8);  // event 0
  t.record_free(0);      // event 1 -> lifetime 1
  t.record_alloc(1, 8);  // event 2
  t.record_alloc(2, 8);  // event 3
  t.record_free(2);      // event 4 -> lifetime 1
  t.record_free(1);      // event 5 -> lifetime 3
  const TraceStats s = t.stats();
  EXPECT_NEAR(s.mean_lifetime_events, (1.0 + 1.0 + 3.0) / 3.0, 1e-9);
}

TEST(AllocTrace, AppendOffsetsIdsAndPhases) {
  AllocTrace a = simple_trace();
  AllocTrace b = simple_trace();
  a.append(b, /*phase_offset=*/2);
  EXPECT_TRUE(a.validate()) << "appended ids must not collide";
  const TraceStats s = a.stats();
  EXPECT_EQ(s.events, 12u);
  EXPECT_EQ(s.phases, 4u) << "phases 0,1 then 2,3";
}

TEST(AllocTrace, IdBoundsRecomputeAfterEveryMutation) {
  AllocTrace t = simple_trace();
  EXPECT_EQ(t.id_bounds().max_id, 2u);
  EXPECT_EQ(t.id_bounds().allocs, 3u);  // second call: served by the memo

  t.record_alloc(9, 10);
  EXPECT_EQ(t.id_bounds().max_id, 9u) << "record_alloc";
  EXPECT_EQ(t.id_bounds().allocs, 4u);

  t.close_leaks();
  t.record_free(11);
  EXPECT_EQ(t.id_bounds().max_id, 11u) << "record_free";
  EXPECT_EQ(t.id_bounds().allocs, 4u);

  t.events().push_back({AllocEvent::Op::kAlloc, 20, 8, 0});
  EXPECT_EQ(t.id_bounds().max_id, 20u) << "mutable events()";
  EXPECT_EQ(t.id_bounds().allocs, 5u);

  const TraceIdBounds before = t.id_bounds();
  t.append(simple_trace());
  EXPECT_EQ(t.id_bounds().max_id, 21u + 2u) << "append offsets ids past 20";
  EXPECT_EQ(t.id_bounds().allocs, before.allocs + 3u);

  AllocTrace leaky;
  leaky.record_alloc(0, 16);
  EXPECT_EQ(leaky.id_bounds().allocs, 1u);
  leaky.close_leaks();
  EXPECT_EQ(leaky.size(), 2u) << "close_leaks";
  leaky.record_alloc(3, 16);
  EXPECT_EQ(leaky.id_bounds().max_id, 3u);

  // Copies and moves carry the memo along with the events.
  const AllocTrace copy = t;
  EXPECT_EQ(copy.id_bounds().max_id, t.id_bounds().max_id);
  EXPECT_EQ(copy.id_bounds().allocs, t.id_bounds().allocs);
  AllocTrace moved = std::move(t);
  EXPECT_EQ(moved.id_bounds().max_id, copy.id_bounds().max_id);
  moved.record_alloc(40, 1);
  EXPECT_EQ(moved.id_bounds().max_id, 40u);
  EXPECT_EQ(copy.id_bounds().max_id, 23u) << "a copy is independent";
}

}  // namespace
}  // namespace dmm::core
