// Direct Pool-level tests: carving, splitting, coalescing (immediate and
// deferred), wilderness retreat, empty-chunk release — on a private arena
// so every chunk interaction is visible in its request/release counts.

#include "dmm/alloc/pool.h"

#include <gtest/gtest.h>

#include <vector>

#include "dmm/alloc/size_class.h"
#include "dmm/sysmem/system_arena.h"

namespace dmm::alloc {
namespace {

// The arena and stats a pool draws on; the arena's request/release
// counts are the pool's chunk traffic.
class Host {
 public:
  [[nodiscard]] sysmem::SystemArena& arena() { return arena_; }
  [[nodiscard]] std::size_t grows() const {
    return arena_.stats().request_count;
  }
  [[nodiscard]] std::size_t releases() const {
    return arena_.stats().release_count;
  }

  AllocatorStats stats;

 private:
  sysmem::SystemArena arena_;
};

/// Every case runs on the DynamicShape instantiation.
using DynamicPool = Pool<DynamicShape>;

DynamicPool make_pool(Host& host, const DmmConfig& cfg,
                      std::size_t fixed_block_size = 0) {
  return DynamicPool(PolicyLeaves::from(cfg), fixed_block_size, host.arena(),
                     &host, host.stats);
}

DmmConfig variable_cfg() {
  DmmConfig c = drr_paper_config();
  c.chunk_bytes = 16 * 1024;
  return c;
}

TEST(Pool, CarvesFromWildernessAndGrowsOnDemand) {
  Host host;
  const DmmConfig cfg = variable_cfg();
  {
    DynamicPool pool = make_pool(host, cfg);
    std::vector<std::byte*> blocks;
    // 16 KiB chunk minus header = 16336; 100 x 160-byte blocks need two.
    for (int i = 0; i < 110; ++i) {
      std::byte* b = pool.allocate_block(160);
      ASSERT_NE(b, nullptr);
      blocks.push_back(b);
    }
    EXPECT_EQ(host.grows(), 2u);
    EXPECT_EQ(pool.live_blocks(), 110u);
    pool.check_integrity();
    ChunkHeader* chunk = pool.chunk_of(blocks[0]);
    for (std::byte* b : blocks) {
      pool.free_block(b, pool.block_size_of(b), pool.chunk_of(b));
    }
    (void)chunk;
  }
  EXPECT_EQ(host.arena().live_chunks(), 0u);
}

TEST(Pool, ImmediateCoalesceMergesRunsBidirectionally) {
  Host host;
  const DmmConfig cfg = variable_cfg();
  DynamicPool pool = make_pool(host, cfg);
  // a | b | c | barrier — free a, c, then b: b must bridge a and c.
  std::byte* a = pool.allocate_block(256);
  std::byte* b = pool.allocate_block(256);
  std::byte* c = pool.allocate_block(256);
  std::byte* barrier = pool.allocate_block(256);
  ChunkHeader* chunk = pool.chunk_of(a);
  pool.free_block(a, 256, chunk);
  pool.free_block(c, 256, chunk);
  EXPECT_EQ(pool.index().count(), 2u);
  pool.free_block(b, 256, chunk);
  EXPECT_EQ(pool.index().count(), 1u) << "a+b+c merged into one block";
  EXPECT_EQ(pool.index().bytes(), 768u);
  pool.check_integrity();
  pool.free_block(barrier, 256, chunk);
}

TEST(Pool, WildernessRetreatInsteadOfTrailingFreeBlock) {
  Host host;
  const DmmConfig cfg = variable_cfg();
  DynamicPool pool = make_pool(host, cfg);
  std::byte* a = pool.allocate_block(256);
  std::byte* b = pool.allocate_block(256);  // b touches the wilderness
  ChunkHeader* chunk = pool.chunk_of(a);
  const std::size_t bump_before = chunk->bump;
  pool.free_block(b, 256, chunk);
  EXPECT_EQ(chunk->bump, bump_before - 256) << "bump retreats over b";
  EXPECT_EQ(pool.index().count(), 0u) << "no free block threaded";
  pool.free_block(a, 256, chunk);
}

TEST(Pool, EmptyChunkReleasedOnlyWithGrowShrink) {
  for (PoolAdaptivity adaptivity :
       {PoolAdaptivity::kGrowOnly, PoolAdaptivity::kGrowAndShrink}) {
    Host host;
    DmmConfig cfg = variable_cfg();
    cfg.adaptivity = adaptivity;
    DynamicPool pool = make_pool(host, cfg);
    std::byte* a = pool.allocate_block(512);
    ChunkHeader* chunk = pool.chunk_of(a);
    pool.free_block(a, 512, chunk);
    if (adaptivity == PoolAdaptivity::kGrowAndShrink) {
      EXPECT_EQ(host.releases(), 1u) << "empty chunk goes back";
      EXPECT_EQ(pool.chunk_count(), 0u);
    } else {
      EXPECT_EQ(host.releases(), 0u) << "grow-only retains";
      EXPECT_EQ(pool.chunk_count(), 1u);
    }
  }
}

TEST(Pool, DeferredSweepBridgesScatteredFrees) {
  Host host;
  DmmConfig cfg = variable_cfg();
  cfg.coalesce_when = CoalesceWhen::kDeferred;
  cfg.adaptivity = PoolAdaptivity::kGrowOnly;
  DynamicPool pool = make_pool(host, cfg);
  std::vector<std::byte*> blocks;
  for (int i = 0; i < 32; ++i) blocks.push_back(pool.allocate_block(256));
  ChunkHeader* chunk = pool.chunk_of(blocks[0]);
  // Free all but the last (it guards the wilderness edge).
  for (int i = 0; i < 31; ++i) {
    pool.free_block(blocks[static_cast<std::size_t>(i)], 256, chunk);
  }
  EXPECT_EQ(pool.index().count(), 31u) << "deferred: nothing merged yet";
  const std::size_t merges = pool.coalesce_sweep();
  EXPECT_GT(merges, 0u);
  EXPECT_EQ(pool.index().count(), 1u) << "one 31-block run";
  EXPECT_EQ(pool.index().bytes(), 31u * 256);
  pool.check_integrity();
  pool.free_block(blocks[31], 256, chunk);
}

TEST(Pool, FixedPoolServesUniformBlocks) {
  Host host;
  DmmConfig cfg = fig4_wrong_order_config();  // no tags, fixed pools
  cfg.chunk_bytes = 16 * 1024;
  DynamicPool pool = make_pool(host, cfg, /*fixed_block_size=*/128);
  std::byte* a = pool.allocate_block(128);
  std::byte* b = pool.allocate_block(128);
  EXPECT_EQ(pool.block_size_of(a), 128u) << "size from pool membership";
  EXPECT_EQ(b - a, 128) << "uniform grid";
  ChunkHeader* chunk = pool.chunk_of(a);
  pool.free_block(a, 128, chunk);
  std::byte* c = pool.allocate_block(128);
  EXPECT_EQ(c, a) << "free list recycles the slot";
  pool.free_block(b, 128, chunk);
  pool.free_block(c, 128, chunk);
}

TEST(Pool, SplitHonoursMinimumViableRemainder) {
  Host host;
  const DmmConfig cfg = variable_cfg();
  const BlockLayout layout = BlockLayout::from(cfg);
  DynamicPool pool = make_pool(host, cfg);
  std::byte* big = pool.allocate_block(512);
  std::byte* barrier = pool.allocate_block(64);
  ChunkHeader* chunk = pool.chunk_of(big);
  pool.free_block(big, 512, chunk);
  // Request leaving a remainder below min_block: no split, whole block.
  const std::size_t min_block =
      layout.min_block_size(link_bytes(cfg.block_structure));
  std::byte* taken = pool.allocate_block(512 - min_block + 8);
  EXPECT_EQ(taken, big);
  EXPECT_EQ(pool.block_size_of(taken), 512u)
      << "sliver remainders stay attached (internal fragmentation)";
  pool.free_block(taken, 512, chunk);
  pool.free_block(barrier, 64, chunk);
}

TEST(Pool, BoundedSplitProducesClassSizedRemainders) {
  Host host;
  DmmConfig cfg = variable_cfg();
  cfg.split_sizes = SplitSizes::kBoundedByClass;
  DynamicPool pool = make_pool(host, cfg);
  std::byte* big = pool.allocate_block(1000);
  std::byte* barrier = pool.allocate_block(64);
  ChunkHeader* chunk = pool.chunk_of(big);
  pool.free_block(big, 1000, chunk);
  // 1000-block for a 200 request: remainder 800 rounds down to 512.
  std::byte* taken = pool.allocate_block(200);
  EXPECT_EQ(taken, big);
  EXPECT_EQ(pool.block_size_of(taken), 1000u - 512u)
      << "E1 bounded: remainder is the class size 512, gap stays attached";
  EXPECT_EQ(pool.index().bytes(), 512u);
  std::byte* rem = pool.index().take_fit(512, FitAlgorithm::kBestFit);
  ASSERT_NE(rem, nullptr);
  pool.index().insert(rem);
  pool.free_block(taken, pool.block_size_of(taken), chunk);
  pool.free_block(barrier, 64, chunk);
}

TEST(Pool, GrowReserveProvisionsWithoutAllocating) {
  Host host;
  const DmmConfig cfg = variable_cfg();
  DynamicPool pool = make_pool(host, cfg);
  ASSERT_NE(pool.grow_reserve(64 * 1024), nullptr);
  EXPECT_EQ(pool.live_blocks(), 0u);
  EXPECT_GE(host.arena().footprint(), 64u * 1024);
  std::byte* b = pool.allocate_block(1024);
  EXPECT_EQ(host.grows(), 1u) << "the reserve serves the allocation";
  pool.free_block(b, 1024, pool.chunk_of(b));
}

}  // namespace
}  // namespace dmm::alloc
