#include "dmm/alloc/custom_manager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dmm/alloc/config_rules.h"
#include "dmm/alloc/stl_adaptor.h"
#include "dmm/sysmem/system_arena.h"

namespace dmm::alloc {
namespace {

using sysmem::SystemArena;

TEST(CustomManager, AllocateWriteFreeRoundTrip) {
  SystemArena arena;
  {
    CustomManager mgr(arena, drr_paper_config());
    void* p = mgr.allocate(100);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xAB, 100);
    EXPECT_GE(mgr.usable_size(p), 100u);
    EXPECT_EQ(mgr.stats().live_blocks, 1u);
    EXPECT_EQ(mgr.stats().live_bytes, 100u);
    mgr.deallocate(p);
    EXPECT_EQ(mgr.stats().live_blocks, 0u);
    EXPECT_EQ(mgr.stats().live_bytes, 0u);
  }
  EXPECT_EQ(arena.live_chunks(), 0u) << "manager must return all chunks";
}

TEST(CustomManager, GrowShrinkReturnsMemoryToSystem) {
  SystemArena arena;
  CustomManager mgr(arena, drr_paper_config());
  std::vector<void*> ptrs;
  for (int i = 0; i < 200; ++i) ptrs.push_back(mgr.allocate(256));
  EXPECT_GT(arena.footprint(), 0u);
  for (void* p : ptrs) mgr.deallocate(p);
  EXPECT_EQ(arena.footprint(), 0u)
      << "B4 = grow+shrink: empty chunks go back to the system";
  EXPECT_GT(arena.peak_footprint(), 0u);
}

TEST(CustomManager, GrowOnlyRetainsMemory) {
  SystemArena arena;
  DmmConfig cfg = drr_paper_config();
  cfg.adaptivity = PoolAdaptivity::kGrowOnly;
  CustomManager mgr(arena, cfg);
  std::vector<void*> ptrs;
  for (int i = 0; i < 200; ++i) ptrs.push_back(mgr.allocate(256));
  const std::size_t high = arena.footprint();
  for (void* p : ptrs) mgr.deallocate(p);
  EXPECT_EQ(arena.footprint(), high)
      << "B4 = grow-only: nothing returns to the system";
}

TEST(CustomManager, FreedMemoryIsReused) {
  SystemArena arena;
  CustomManager mgr(arena, drr_paper_config());
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) ptrs.push_back(mgr.allocate(128));
  const std::size_t high = arena.peak_footprint();
  for (void* p : ptrs) mgr.deallocate(p);
  ptrs.clear();
  for (int i = 0; i < 100; ++i) ptrs.push_back(mgr.allocate(128));
  EXPECT_EQ(arena.peak_footprint(), high)
      << "second wave must recycle the first wave's memory";
  for (void* p : ptrs) mgr.deallocate(p);
}

// 125 x 520-byte blocks fill a 64 KiB chunk almost exactly, leaving a
// wilderness tail (~500 B) too small for the 16 KiB probe below.
constexpr int kFillCount = 125;

TEST(CustomManager, CoalescingMergesNeighborsForBigRequest) {
  SystemArena arena;
  DmmConfig cfg = drr_paper_config();
  cfg.chunk_bytes = 64 * 1024;
  cfg.big_request_bytes = 1 << 20;  // keep everything in the pool
  cfg.adaptivity = PoolAdaptivity::kGrowOnly;  // keep the chunk around
  CustomManager mgr(arena, cfg);
  std::vector<void*> ptrs;
  for (int i = 0; i < kFillCount; ++i) ptrs.push_back(mgr.allocate(512));
  const auto grown_before = mgr.stats().chunks_grown;
  for (void* p : ptrs) mgr.deallocate(p);
  EXPECT_GT(mgr.stats().coalesces, 0u);
  void* big = mgr.allocate(16 * 1024);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(mgr.stats().chunks_grown, grown_before)
      << "coalesced space must satisfy the big request";
  mgr.deallocate(big);
}

TEST(CustomManager, NeverCoalesceCannotServeBigFromFragments) {
  SystemArena arena;
  DmmConfig cfg = drr_paper_config();
  cfg.flexible = FlexibleBlockSize::kSplitOnly;
  cfg.coalesce_when = CoalesceWhen::kNever;
  cfg.chunk_bytes = 64 * 1024;
  cfg.big_request_bytes = 1 << 20;
  cfg.adaptivity = PoolAdaptivity::kGrowOnly;  // keep the fragments
  CustomManager mgr(arena, cfg);
  std::vector<void*> ptrs;
  for (int i = 0; i < kFillCount; ++i) ptrs.push_back(mgr.allocate(512));
  const auto grown_before = mgr.stats().chunks_grown;
  for (void* p : ptrs) mgr.deallocate(p);
  void* big = mgr.allocate(16 * 1024);
  ASSERT_NE(big, nullptr);
  EXPECT_GT(mgr.stats().chunks_grown, grown_before)
      << "without coalescing the external fragments are unusable";
  mgr.deallocate(big);
}

TEST(CustomManager, DeferredCoalesceSweepsOnPressure) {
  SystemArena arena;
  DmmConfig cfg = drr_paper_config();
  cfg.coalesce_when = CoalesceWhen::kDeferred;
  cfg.chunk_bytes = 64 * 1024;
  cfg.big_request_bytes = 1 << 20;
  cfg.adaptivity = PoolAdaptivity::kGrowOnly;
  CustomManager mgr(arena, cfg);
  std::vector<void*> ptrs;
  for (int i = 0; i < kFillCount; ++i) ptrs.push_back(mgr.allocate(512));
  for (void* p : ptrs) mgr.deallocate(p);
  EXPECT_EQ(mgr.stats().coalesces, 0u) << "deferred: no merge on free";
  const auto grown_before = mgr.stats().chunks_grown;
  void* big = mgr.allocate(16 * 1024);
  ASSERT_NE(big, nullptr);
  EXPECT_GT(mgr.stats().coalesces, 0u) << "pressure triggers the sweep";
  EXPECT_EQ(mgr.stats().chunks_grown, grown_before);
  mgr.deallocate(big);
}

TEST(CustomManager, SplittingRecoversRemainders) {
  SystemArena arena;
  DmmConfig cfg = drr_paper_config();
  cfg.big_request_bytes = 1 << 20;
  CustomManager mgr(arena, cfg);
  void* big = mgr.allocate(4096);
  void* barrier = mgr.allocate(64);  // keeps `big` away from the wilderness
  mgr.deallocate(big);
  // The freed 4 KiB block sits mid-chunk; a 100-byte request should split
  // it rather than waste it.
  void* small = mgr.allocate(100);
  ASSERT_NE(small, nullptr);
  EXPECT_GT(mgr.stats().splits, 0u);
  EXPECT_LT(mgr.usable_size(small), 1024u)
      << "exact fit + always split must not hand out the whole 4 KiB";
  mgr.deallocate(small);
  mgr.deallocate(barrier);
}

TEST(CustomManager, NeverSplitHandsOutWholeBlocks) {
  SystemArena arena;
  DmmConfig cfg = drr_paper_config();
  cfg.flexible = FlexibleBlockSize::kCoalesceOnly;
  cfg.split_when = SplitWhen::kNever;
  cfg.big_request_bytes = 1 << 20;
  CustomManager mgr(arena, cfg);
  void* big = mgr.allocate(4096);
  void* barrier = mgr.allocate(64);  // keeps `big` away from the wilderness
  mgr.deallocate(big);
  void* small = mgr.allocate(100);
  ASSERT_NE(small, nullptr);
  EXPECT_GE(mgr.usable_size(small), 4096u)
      << "E2=never: the 100-byte request occupies the whole 4 KiB block "
         "(internal fragmentation)";
  mgr.deallocate(small);
  mgr.deallocate(barrier);
}

TEST(CustomManager, BigRequestsGetDedicatedChunksAndReleaseThem) {
  SystemArena arena;
  CustomManager mgr(arena, drr_paper_config());
  const std::size_t before = arena.footprint();
  void* p = mgr.allocate(100 * 1024);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, 100 * 1024);
  EXPECT_GE(arena.footprint(), before + 100 * 1024);
  mgr.deallocate(p);
  EXPECT_EQ(arena.footprint(), before)
      << "grow+shrink releases dedicated chunks immediately";
}

TEST(CustomManager, BigRequestsCachedWhenGrowOnly) {
  SystemArena arena;
  DmmConfig cfg = drr_paper_config();
  cfg.adaptivity = PoolAdaptivity::kGrowOnly;
  CustomManager mgr(arena, cfg);
  void* p = mgr.allocate(100 * 1024);
  mgr.deallocate(p);
  const std::size_t held = arena.footprint();
  EXPECT_GT(held, 100u * 1024) << "the dedicated chunk is cached";
  void* q = mgr.allocate(90 * 1024);
  EXPECT_EQ(arena.footprint(), held) << "cache served the second request";
  mgr.deallocate(q);
}

TEST(CustomManager, StaticPreallocationServesWithinBudgetOnly) {
  SystemArena arena;
  DmmConfig cfg = drr_paper_config();
  cfg.adaptivity = PoolAdaptivity::kStaticPreallocated;
  cfg.static_pool_bytes = 64 * 1024;
  CustomManager mgr(arena, cfg);
  EXPECT_GE(arena.footprint(), 64u * 1024) << "budget grabbed up front";
  const std::size_t static_fp = arena.footprint();
  std::vector<void*> ptrs;
  void* p = nullptr;
  while ((p = mgr.allocate(1024)) != nullptr) ptrs.push_back(p);
  EXPECT_GT(ptrs.size(), 40u) << "most of the budget is allocatable";
  EXPECT_EQ(arena.footprint(), static_fp) << "static: the pool never grows";
  EXPECT_GT(mgr.stats().failed_allocs, 0u);
  for (void* q : ptrs) mgr.deallocate(q);
}

TEST(CustomManager, PerExactSizePoolsSegregateSizes) {
  SystemArena arena;
  CustomManager mgr(arena, fig4_wrong_order_config());
  void* a = mgr.allocate(40);
  void* b = mgr.allocate(72);
  void* c = mgr.allocate(40);
  EXPECT_EQ(mgr.pool_count(), 2u) << "one pool per distinct rounded size";
  mgr.deallocate(a);
  mgr.deallocate(b);
  mgr.deallocate(c);
}

TEST(CustomManager, UsableSizeNeverLies) {
  SystemArena arena;
  CustomManager mgr(arena, drr_paper_config());
  for (std::size_t sz : {1u, 8u, 100u, 1000u, 5000u, 100000u}) {
    void* p = mgr.allocate(sz);
    ASSERT_NE(p, nullptr);
    const std::size_t usable = mgr.usable_size(p);
    EXPECT_GE(usable, sz);
    std::memset(p, 0x77, usable);  // the full usable range must be writable
    mgr.deallocate(p);
  }
}

TEST(CustomManager, StlAdaptorRunsContainers) {
  SystemArena arena;
  CustomManager mgr(arena, drr_paper_config());
  {
    std::vector<int, StlAdaptor<int>> v{StlAdaptor<int>(mgr)};
    for (int i = 0; i < 10000; ++i) v.push_back(i);
    long long sum = 0;
    for (int x : v) sum += x;
    EXPECT_EQ(sum, 10000LL * 9999 / 2);
  }
  EXPECT_EQ(mgr.stats().live_bytes, 0u);
  EXPECT_EQ(arena.footprint(), 0u);
}

TEST(CustomManager, IntegrityHoldsAfterChurn) {
  SystemArena arena;
  CustomManager mgr(arena, drr_paper_config());
  std::vector<void*> live;
  unsigned rng = 12345;
  auto next = [&rng] { return rng = rng * 1664525u + 1013904223u; };
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || next() % 3 != 0) {
      void* p = mgr.allocate(8 + next() % 2000);
      ASSERT_NE(p, nullptr);
      live.push_back(p);
    } else {
      const std::size_t i = next() % live.size();
      mgr.deallocate(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    if (step % 500 == 0) mgr.check_integrity();
  }
  mgr.check_integrity();
  for (void* p : live) mgr.deallocate(p);
  EXPECT_EQ(arena.footprint(), 0u);
}

TEST(CustomManager, WasteIsFootprintMinusLive) {
  SystemArena arena;
  CustomManager mgr(arena, drr_paper_config());
  void* p = mgr.allocate(100);
  EXPECT_EQ(mgr.waste(), arena.footprint() - 100);
  mgr.deallocate(p);
}

TEST(CustomManagerDeathTest, FreeOfAnotherManagersPointerAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SystemArena arena;  // shared: both managers' chunks in one page map
  CustomManager a(arena, drr_paper_config());
  CustomManager b(arena, drr_paper_config());
  void* block = a.allocate(100);  // pool block
  void* big = a.allocate(drr_paper_config().big_request_bytes);
  ASSERT_NE(block, nullptr);
  ASSERT_NE(big, nullptr);
  EXPECT_DEATH(b.deallocate(block), "not owned by this manager");
  EXPECT_DEATH(b.deallocate(big), "not owned by this manager");
  EXPECT_DEATH((void)b.usable_size(block), "not owned by this manager");
  a.deallocate(block);
  a.deallocate(big);
  EXPECT_EQ(arena.live_chunks(), 0u) << "grow+shrink returned every chunk";
}

}  // namespace
}  // namespace dmm::alloc
