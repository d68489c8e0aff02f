#include "dmm/core/global_manager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dmm/alloc/config_rules.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;
using sysmem::SystemArena;

std::vector<DmmConfig> two_phase_configs() {
  DmmConfig churn = alloc::drr_paper_config();
  DmmConfig stack = alloc::drr_paper_config();
  stack.fit = alloc::FitAlgorithm::kFirstFit;
  stack.chunk_bytes = 64 * 1024;
  return {churn, stack};
}

TEST(GlobalManager, RoutesAllocationsByPhase) {
  SystemArena arena;
  GlobalManager mgr(arena, two_phase_configs());
  EXPECT_EQ(mgr.atomic_count(), 2u);
  void* a = mgr.allocate(100);
  mgr.set_phase(1);
  void* b = mgr.allocate(100);
  EXPECT_EQ(mgr.atomic(0).stats().alloc_count, 1u);
  EXPECT_EQ(mgr.atomic(1).stats().alloc_count, 1u);
  mgr.deallocate(a);
  mgr.deallocate(b);
}

TEST(GlobalManager, FreesRouteToTheOwningAtomicManager) {
  SystemArena arena;
  GlobalManager mgr(arena, two_phase_configs());
  void* a = mgr.allocate(500);  // phase 0
  mgr.set_phase(1);
  // Object a outlives its phase; freeing it now must reach atomic 0.
  mgr.deallocate(a);
  EXPECT_EQ(mgr.atomic(0).stats().free_count, 1u);
  EXPECT_EQ(mgr.atomic(1).stats().free_count, 0u);
}

TEST(GlobalManager, SharedArenaGivesCombinedFootprint) {
  SystemArena arena;
  GlobalManager mgr(arena, two_phase_configs());
  std::vector<void*> ptrs;
  for (int i = 0; i < 50; ++i) ptrs.push_back(mgr.allocate(1000));
  mgr.set_phase(1);
  for (int i = 0; i < 50; ++i) ptrs.push_back(mgr.allocate(1000));
  EXPECT_GE(arena.peak_footprint(), 100u * 1000)
      << "both atomic managers draw from the same arena";
  for (void* p : ptrs) mgr.deallocate(p);
  EXPECT_EQ(arena.footprint(), 0u);
  EXPECT_EQ(mgr.stats().live_bytes, 0u);
}

TEST(GlobalManager, PhaseBeyondRosterClampsToLast) {
  SystemArena arena;
  GlobalManager mgr(arena, two_phase_configs());
  mgr.set_phase(99);
  void* p = mgr.allocate(64);
  EXPECT_EQ(mgr.atomic(1).stats().alloc_count, 1u);
  mgr.deallocate(p);
}

TEST(GlobalManager, ContentSurvivesCrossPhaseChurn) {
  SystemArena arena;
  GlobalManager mgr(arena, two_phase_configs());
  struct Obj {
    void* p;
    unsigned char pat;
    std::size_t size;
  };
  std::vector<Obj> live;
  unsigned rng = 5;
  auto next = [&rng] { return rng = rng * 1664525u + 1013904223u; };
  for (int step = 0; step < 3000; ++step) {
    mgr.set_phase(static_cast<std::uint16_t>((step / 300) % 2));
    if (live.empty() || next() % 5 < 3) {
      const std::size_t size = 1 + next() % 2000;
      void* p = mgr.allocate(size);
      ASSERT_NE(p, nullptr);
      const auto pat = static_cast<unsigned char>(1 + next() % 255);
      std::memset(p, pat, size);
      live.push_back({p, pat, size});
    } else {
      const std::size_t i = next() % live.size();
      const auto* bytes = static_cast<const unsigned char*>(live[i].p);
      for (std::size_t k = 0; k < live[i].size; ++k) {
        ASSERT_EQ(bytes[k], live[i].pat);
      }
      mgr.deallocate(live[i].p);
      live[i] = live.back();
      live.pop_back();
    }
  }
  for (const Obj& o : live) mgr.deallocate(o.p);
  EXPECT_EQ(arena.footprint(), 0u);
}

TEST(GlobalManager, UsableSizeRoutesCorrectly) {
  SystemArena arena;
  GlobalManager mgr(arena, two_phase_configs());
  void* a = mgr.allocate(100);
  mgr.set_phase(1);
  void* b = mgr.allocate(5000);
  EXPECT_GE(mgr.usable_size(a), 100u);
  EXPECT_GE(mgr.usable_size(b), 5000u);
  mgr.deallocate(a);
  mgr.deallocate(b);
}

TEST(GlobalManager, CrossPhaseFreeBalancesLiveBytes) {
  SystemArena arena;
  GlobalManager mgr(arena, two_phase_configs());
  void* small = mgr.allocate(100);  // phase 0
  void* big = mgr.allocate(20000);  // phase 0, dedicated chunk
  mgr.set_phase(1);
  void* other = mgr.allocate(300);
  EXPECT_EQ(mgr.stats().live_bytes, 20400u);
  mgr.deallocate(small);  // freed in phase 1, owned by atomic 0
  mgr.deallocate(big);
  EXPECT_EQ(mgr.stats().live_bytes, 300u);
  mgr.deallocate(other);
  EXPECT_EQ(mgr.stats().live_bytes, 0u);
  EXPECT_EQ(mgr.atomic(0).stats().live_bytes, 0u);
  EXPECT_EQ(mgr.atomic(1).stats().live_bytes, 0u);
}

TEST(GlobalManagerDeathTest, FreeOfAnOutsideManagersPointerAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SystemArena arena;
  GlobalManager mgr(arena, two_phase_configs());
  alloc::CustomManager outside(arena, alloc::drr_paper_config());
  void* mine = mgr.allocate(100);
  void* theirs = outside.allocate(100);
  EXPECT_DEATH(mgr.deallocate(theirs), "pointer not owned");
  EXPECT_DEATH((void)mgr.usable_size(theirs), "pointer not owned");
  mgr.deallocate(mine);
  outside.deallocate(theirs);
}

}  // namespace
}  // namespace dmm::core
