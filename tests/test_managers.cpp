#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "dmm/alloc/config_rules.h"
#include "dmm/alloc/custom_manager.h"
#include "dmm/managers/kingsley.h"
#include "dmm/managers/lea.h"
#include "dmm/managers/obstack.h"
#include "dmm/managers/region.h"
#include "dmm/managers/registry.h"
#include "dmm/sysmem/system_arena.h"

namespace dmm::managers {
namespace {

using sysmem::SystemArena;

// ---------------------------------------------------------------------------
// shared malloc-contract churn, run over every registered manager
// ---------------------------------------------------------------------------

class EveryManager : public ::testing::TestWithParam<std::string> {};

TEST_P(EveryManager, MallocContractUnderChurn) {
  SystemArena arena;
  {
    auto mgr = make_manager(GetParam(), arena);
    unsigned rng = 99;
    auto next = [&rng] { return rng = rng * 1664525u + 1013904223u; };
    struct Obj {
      void* p;
      std::size_t size;
      unsigned char pat;
    };
    std::vector<Obj> live;
    for (int step = 0; step < 4000; ++step) {
      if (live.empty() || next() % 5 < 3) {
        const std::size_t size = 1 + next() % 3000;
        void* p = mgr->allocate(size);
        ASSERT_NE(p, nullptr);
        const auto pat = static_cast<unsigned char>(1 + next() % 255);
        std::memset(p, pat, size);
        live.push_back({p, size, pat});
      } else {
        const std::size_t i = next() % live.size();
        const auto* bytes = static_cast<const unsigned char*>(live[i].p);
        for (std::size_t k = 0; k < live[i].size; ++k) {
          ASSERT_EQ(bytes[k], live[i].pat) << "corruption in " << GetParam();
        }
        mgr->deallocate(live[i].p);
        live[i] = live.back();
        live.pop_back();
      }
    }
    for (const Obj& o : live) mgr->deallocate(o.p);
  }
  EXPECT_EQ(arena.live_chunks(), 0u)
      << GetParam() << " leaked chunks through destruction";
}

TEST_P(EveryManager, UsableSizeCoversRequest) {
  SystemArena arena;
  auto mgr = make_manager(GetParam(), arena);
  for (std::size_t sz : {1u, 7u, 64u, 100u, 1000u, 2048u}) {
    void* p = mgr->allocate(sz);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(mgr->usable_size(p), sz);
    mgr->deallocate(p);
  }
}

INSTANTIATE_TEST_SUITE_P(Baselines, EveryManager,
                         ::testing::ValuesIn(baseline_names()),
                         [](const auto& p) { return p.param; });

// ---------------------------------------------------------------------------
// requests no arena can grant fail instead of wrapping the size rounding
// ---------------------------------------------------------------------------

std::vector<std::string> every_manager_name() {
  std::vector<std::string> names = baseline_names();
  names.push_back("custom");
  return names;
}

class OversizedRequest : public ::testing::TestWithParam<std::string> {};

TEST_P(OversizedRequest, FailsAndLeavesTheManagerUsable) {
  SystemArena arena;
  const alloc::DmmConfig cfg = alloc::drr_paper_config();
  auto mgr = make_manager(GetParam(), arena, &cfg);
  const std::size_t footprint = arena.footprint();
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  for (std::size_t bytes : {max, max - 8, SystemArena::kSlabBytes + 1}) {
    EXPECT_EQ(mgr->allocate(bytes), nullptr) << bytes;
  }
  EXPECT_EQ(mgr->stats().failed_allocs, 3u);
  EXPECT_EQ(mgr->stats().live_blocks, 0u);
  EXPECT_EQ(arena.footprint(), footprint) << "nothing was granted";
  void* p = mgr->allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(mgr->usable_size(p), 100u);
  mgr->deallocate(p);
}

INSTANTIATE_TEST_SUITE_P(AllManagers, OversizedRequest,
                         ::testing::ValuesIn(every_manager_name()),
                         [](const auto& p) { return p.param; });

// ---------------------------------------------------------------------------
// Kingsley specifics
// ---------------------------------------------------------------------------

TEST(Kingsley, RoundsToPowerOfTwoBlocks) {
  SystemArena arena;
  KingsleyAllocator mgr(arena);
  void* p = mgr.allocate(100);  // 100+8 -> 128-block -> 120 usable
  EXPECT_EQ(mgr.usable_size(p), 120u);
  void* q = mgr.allocate(1500);  // 1508 -> 2048
  EXPECT_EQ(mgr.usable_size(q), 2040u);
  mgr.deallocate(p);
  mgr.deallocate(q);
}

TEST(Kingsley, NeverReturnsMemory) {
  SystemArena arena;
  KingsleyAllocator mgr(arena);
  std::vector<void*> ptrs;
  for (int i = 0; i < 500; ++i) ptrs.push_back(mgr.allocate(1000));
  const std::size_t high = arena.footprint();
  for (void* p : ptrs) mgr.deallocate(p);
  EXPECT_EQ(arena.footprint(), high);
  EXPECT_EQ(mgr.stats().chunks_released, 0u);
}

TEST(Kingsley, FreeListsRecycleWithinClass) {
  SystemArena arena;
  KingsleyAllocator mgr(arena);
  const unsigned idx = alloc::SizeClass::index_for(128);
  const std::size_t prefill = mgr.free_blocks_in_class(idx);
  void* p = mgr.allocate(100);
  mgr.deallocate(p);
  EXPECT_EQ(mgr.free_blocks_in_class(idx), prefill + 0u)
      << "the freed block returned to the front of its class list";
  void* q = mgr.allocate(101);  // same class
  EXPECT_EQ(q, p) << "LIFO recycling within the class";
  mgr.deallocate(q);
}

TEST(Kingsley, InitialReserveIsDistributedOverSmallClasses) {
  // Sec. 5: "an initial memory region is reserved and distributed among
  // the different lists of block sizes".
  SystemArena arena;
  KingsleyAllocator mgr(arena);
  EXPECT_GE(arena.footprint(), 1u << 20) << "the reserve is footprint";
  for (unsigned idx = 1; idx <= 9; ++idx) {  // classes 16 B .. 4 KiB
    EXPECT_GT(mgr.free_blocks_in_class(idx), 0u) << "class " << idx;
  }
  SystemArena lean_arena;
  KingsleyAllocator lean(lean_arena, 64 * 1024, /*initial_reserve_bytes=*/0);
  EXPECT_EQ(lean_arena.footprint(), 0u);
}

TEST(Kingsley, NeverSplitsOrCoalesces) {
  SystemArena arena;
  KingsleyAllocator mgr(arena);
  std::vector<void*> ptrs;
  for (int i = 0; i < 200; ++i) ptrs.push_back(mgr.allocate(64 + i % 512));
  for (void* p : ptrs) mgr.deallocate(p);
  EXPECT_EQ(mgr.stats().splits, 0u);
  EXPECT_EQ(mgr.stats().coalesces, 0u);
}

// ---------------------------------------------------------------------------
// Lea specifics
// ---------------------------------------------------------------------------

TEST(Lea, FreesGoToBinsUnmergedUntilPressure) {
  // The paper's Lea "coalesces seldomly": frees are cached in bins; the
  // merge sweep runs only when a request cannot be served otherwise.
  SystemArena arena;
  LeaAllocator mgr(arena, /*chunk_bytes=*/64 * 1024);
  std::vector<void*> ptrs;
  for (int i = 0; i < 60; ++i) ptrs.push_back(mgr.allocate(1000));
  for (void* p : ptrs) mgr.deallocate(p);
  EXPECT_EQ(mgr.stats().coalesces, 0u) << "no merging on free";
  // 60 KB in 1000-byte fragments; a 32 KiB request forces the sweep.
  void* big = mgr.allocate(32 * 1024);
  ASSERT_NE(big, nullptr);
  EXPECT_GT(mgr.stats().coalesces, 0u) << "pressure triggers the sweep";
  mgr.deallocate(big);
}

TEST(Lea, SplitsLargeBlocksForSmallRequests) {
  SystemArena arena;
  LeaAllocator mgr(arena);
  void* big = mgr.allocate(8 * 1024);
  void* barrier = mgr.allocate(64);  // keeps `big` off the wilderness edge
  mgr.deallocate(big);
  void* small = mgr.allocate(64);
  EXPECT_GT(mgr.stats().splits, 0u);
  EXPECT_LT(mgr.usable_size(small), 1024u);
  mgr.deallocate(small);
  mgr.deallocate(barrier);
}

TEST(Lea, RetainsHeapChunksButReleasesMmapped) {
  SystemArena arena;
  LeaAllocator mgr(arena);
  // Heap-sized churn: footprint plateaus.
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) ptrs.push_back(mgr.allocate(1024));
  const std::size_t high = arena.footprint();
  for (void* p : ptrs) mgr.deallocate(p);
  EXPECT_EQ(arena.footprint(), high) << "no trim of heap chunks";
  // mmap-sized requests come and go.
  void* huge = mgr.allocate(512 * 1024);
  EXPECT_GT(arena.footprint(), high);
  mgr.deallocate(huge);
  EXPECT_EQ(arena.footprint(), high) << "mmap path released";
}

TEST(Lea, ReusesCoalescedSpaceForBigRequests) {
  SystemArena arena;
  LeaAllocator mgr(arena, /*chunk_bytes=*/64 * 1024);
  std::vector<void*> ptrs;
  for (int i = 0; i < 32; ++i) ptrs.push_back(mgr.allocate(1024));
  const auto grown = mgr.stats().chunks_grown;
  for (void* p : ptrs) mgr.deallocate(p);
  void* big = mgr.allocate(24 * 1024);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(mgr.stats().chunks_grown, grown)
      << "coalesced neighbours must serve the big request in place";
  mgr.deallocate(big);
}

TEST(LeaDeathTest, FreeOfAnotherManagersPointerInTheSameArenaAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SystemArena arena;
  LeaAllocator a(arena);
  LeaAllocator b(arena);
  alloc::CustomManager custom(arena, alloc::drr_paper_config());
  void* heap = a.allocate(100);
  void* mmapped = a.allocate(512 * 1024);  // dedicated chunk
  void* foreign = custom.allocate(100);
  EXPECT_DEATH(b.deallocate(heap), "not owned by this manager");
  EXPECT_DEATH(b.deallocate(mmapped), "not owned by this manager");
  EXPECT_DEATH(a.deallocate(foreign), "not owned by this manager");
  EXPECT_DEATH(custom.deallocate(heap), "not owned by this manager");
  a.deallocate(heap);
  a.deallocate(mmapped);
  custom.deallocate(foreign);
}

// ---------------------------------------------------------------------------
// Regions specifics
// ---------------------------------------------------------------------------

TEST(Regions, OneRegionPerDistinctSize) {
  SystemArena arena;
  RegionAllocator mgr(arena);
  void* a = mgr.allocate(100);  // region 128 (64-byte quantisation)
  void* b = mgr.allocate(200);  // region 256
  void* c = mgr.allocate(97);   // region 128 again
  EXPECT_EQ(mgr.region_count(), 2u);
  mgr.deallocate(a);
  mgr.deallocate(b);
  mgr.deallocate(c);
}

TEST(Regions, NoCrossSizeReuse) {
  SystemArena arena;
  RegionAllocator mgr(arena, /*region_chunk_bytes=*/16 * 1024);
  // Allocate and free 100 blocks of size A while keeping one block live so
  // the region does not get destroyed...
  std::vector<void*> as;
  for (int i = 0; i < 100; ++i) as.push_back(mgr.allocate(512));
  for (int i = 1; i < 100; ++i) mgr.deallocate(as[static_cast<size_t>(i)]);
  const std::size_t high = arena.footprint();
  // ...then allocations of size B cannot use region A's free blocks.
  std::vector<void*> bs;
  for (int i = 0; i < 100; ++i) bs.push_back(mgr.allocate(768));
  EXPECT_GT(arena.footprint(), high)
      << "region isolation forces fresh chunks for the second size";
  mgr.deallocate(as[0]);
  for (void* p : bs) mgr.deallocate(p);
}

TEST(Regions, HoldsMemoryUntilExplicitDestroy) {
  SystemArena arena;
  RegionAllocator mgr(arena);
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) ptrs.push_back(mgr.allocate(512));
  EXPECT_GT(arena.footprint(), 0u);
  for (void* p : ptrs) mgr.deallocate(p);
  EXPECT_GT(arena.footprint(), 0u)
      << "per-block frees never release region memory";
  EXPECT_EQ(mgr.destroy_empty_regions(), 1u);
  EXPECT_EQ(arena.footprint(), 0u) << "explicit region-destroy releases";
}

TEST(Regions, QuantizesBlockSizes) {
  EXPECT_EQ(RegionAllocator::quantize(1), 64u);
  EXPECT_EQ(RegionAllocator::quantize(64), 64u);
  EXPECT_EQ(RegionAllocator::quantize(65), 128u);
  EXPECT_EQ(RegionAllocator::quantize(4095), 4096u);
  EXPECT_EQ(RegionAllocator::quantize(4097), 8192u);
  EXPECT_EQ(RegionAllocator::quantize(307200), 307200u);
}

// ---------------------------------------------------------------------------
// Obstacks specifics
// ---------------------------------------------------------------------------

TEST(Obstacks, LifoFreesReclaimEverything) {
  SystemArena arena;
  ObstackAllocator mgr(arena);
  std::vector<void*> ptrs;
  for (int i = 0; i < 300; ++i) ptrs.push_back(mgr.allocate(100));
  EXPECT_GT(arena.footprint(), 0u);
  for (auto it = ptrs.rbegin(); it != ptrs.rend(); ++it) {
    mgr.deallocate(*it);
  }
  EXPECT_EQ(arena.footprint(), 0u) << "pure stack discipline reclaims all";
  EXPECT_EQ(mgr.tombstone_bytes(), 0u);
}

TEST(Obstacks, BuriedFreesLeaveTombstones) {
  SystemArena arena;
  ObstackAllocator mgr(arena);
  void* bottom = mgr.allocate(100);
  void* top = mgr.allocate(100);
  mgr.deallocate(bottom);  // buried: cannot retreat past `top`
  EXPECT_GT(mgr.tombstone_bytes(), 0u);
  const std::size_t held = arena.footprint();
  EXPECT_GT(held, 0u);
  mgr.deallocate(top);  // now the cascade pops both
  EXPECT_EQ(mgr.tombstone_bytes(), 0u);
  EXPECT_EQ(arena.footprint(), 0u);
}

TEST(Obstacks, NonStackPhaseHoldsMemory) {
  // The Sec. 5 render story: obstacks shine on stack-like phases and pay a
  // penalty when a phase frees out of order.  Freeing the even-indexed
  // objects keeps every chunk's top alive, so almost nothing is popped.
  SystemArena arena;
  ObstackAllocator mgr(arena);
  std::vector<void*> ptrs;
  for (int i = 0; i < 200; ++i) ptrs.push_back(mgr.allocate(200));
  const std::size_t high = arena.footprint();
  for (int i = 0; i < 200; i += 2) {
    mgr.deallocate(ptrs[static_cast<std::size_t>(i)]);
  }
  EXPECT_GE(mgr.tombstone_bytes(), 90u * 200)
      << "buried frees reclaim almost nothing";
  EXPECT_EQ(arena.footprint(), high) << "the penalty shows in the footprint";
  for (int i = 1; i < 200; i += 2) {
    mgr.deallocate(ptrs[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(arena.footprint(), 0u);
  EXPECT_EQ(mgr.tombstone_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

TEST(Registry, CustomNeedsConfigAndWorks) {
  SystemArena arena;
  const alloc::DmmConfig cfg = alloc::drr_paper_config();
  auto mgr = make_manager("custom", arena, &cfg);
  void* p = mgr->allocate(64);
  ASSERT_NE(p, nullptr);
  mgr->deallocate(p);
  EXPECT_EQ(mgr->name(), "custom");
}

TEST(Registry, BaselineNamesAreStable) {
  const auto& names = baseline_names();
  ASSERT_EQ(names.size(), 4u);
  SystemArena arena;
  for (const std::string& n : names) {
    auto mgr = make_manager(n, arena);
    EXPECT_FALSE(mgr->name().empty());
  }
}

}  // namespace
}  // namespace dmm::managers
