#include "dmm/sysmem/system_arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <vector>

namespace dmm::sysmem {
namespace {

// Owner tags: any distinct addresses will do.
const char kTags[3] = {};
const void* const kOwnerA = &kTags[0];

TEST(SystemArena, RoundsRequestsToPageSize) {
  SystemArena arena;
  EXPECT_EQ(arena.rounded(1), 4096u);
  EXPECT_EQ(arena.rounded(4096), 4096u);
  EXPECT_EQ(arena.rounded(4097), 8192u);
  EXPECT_EQ(arena.rounded(0), 4096u);
}

TEST(SystemArena, CustomPageSize) {
  SystemArena arena(0, 256);
  EXPECT_EQ(arena.rounded(1), 256u);
  EXPECT_EQ(arena.rounded(257), 512u);
}

TEST(SystemArena, TracksFootprintAndPeak) {
  SystemArena arena;
  std::size_t granted = 0;
  std::byte* a = arena.request(1000, kOwnerA, &granted);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(granted, 4096u);
  EXPECT_EQ(arena.footprint(), 4096u);
  std::byte* b = arena.request(5000, kOwnerA);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(arena.footprint(), 4096u + 8192u);
  EXPECT_EQ(arena.peak_footprint(), 4096u + 8192u);
  arena.release(a);
  EXPECT_EQ(arena.footprint(), 8192u);
  EXPECT_EQ(arena.peak_footprint(), 4096u + 8192u) << "peak must not shrink";
  arena.release(b);
  EXPECT_EQ(arena.footprint(), 0u);
  EXPECT_EQ(arena.live_chunks(), 0u);
}

TEST(SystemArena, CapacityBudgetRejectsOverflow) {
  SystemArena arena(16 * 1024);
  std::byte* a = arena.request(8 * 1024, kOwnerA);
  ASSERT_NE(a, nullptr);
  std::byte* b = arena.request(8 * 1024, kOwnerA);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(arena.request(1, kOwnerA), nullptr) << "budget exhausted";
  EXPECT_EQ(arena.stats().failed_requests, 1u);
  arena.release(a);
  EXPECT_NE(a = arena.request(4 * 1024, kOwnerA), nullptr)
      << "freed budget reusable";
  arena.release(a);
  arena.release(b);
}

TEST(SystemArena, OwnershipQueries) {
  SystemArena arena;
  std::byte* a = arena.request(100, kOwnerA);
  Grant g = arena.grant_of(a);
  EXPECT_EQ(g.base, a);
  EXPECT_EQ(g.size, 4096u);
  EXPECT_EQ(g.owner, kOwnerA);
  EXPECT_NE(arena.grant_of(a + 1).base, a + 1)
      << "an interior pointer resolves to its grant, not to a grant base";
  arena.release(a);
  EXPECT_FALSE(arena.grant_of(a));
  EXPECT_EQ(arena.grant_of(a).size, 0u);
}

TEST(SystemArena, StatsCountersAreMonotone) {
  SystemArena arena;
  std::byte* a = arena.request(100, kOwnerA);
  std::byte* b = arena.request(100, kOwnerA);
  arena.release(a);
  const ArenaStats& s = arena.stats();
  EXPECT_EQ(s.request_count, 2u);
  EXPECT_EQ(s.release_count, 1u);
  EXPECT_EQ(s.total_requested, 8192u);
  EXPECT_EQ(s.total_released, 4096u);
  EXPECT_EQ(s.live_grants(), 1u);
  arena.release(b);
}

TEST(SystemArena, GrantsAreMaxAligned) {
  SystemArena arena;
  for (int i = 0; i < 8; ++i) {
    std::byte* p = arena.request(100, kOwnerA);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                  alignof(std::max_align_t),
              0u);
    arena.release(p);
  }
}

TEST(SystemArena, OversizedRequestsFailWithoutWrapping) {
  SystemArena arena;
  std::size_t granted = 123;
  const std::size_t max = std::numeric_limits<std::size_t>::max();
  for (std::size_t bytes : {max, max - 8, SystemArena::kSlabBytes + 1}) {
    EXPECT_EQ(arena.request(bytes, kOwnerA, &granted), nullptr) << bytes;
  }
  EXPECT_EQ(granted, 123u) << "a failed request grants nothing";
  EXPECT_EQ(arena.stats().failed_requests, 3u);
  EXPECT_EQ(arena.live_chunks(), 0u);
  EXPECT_EQ(arena.footprint(), 0u);
}

// Reference model for grant_of: live grants keyed by base.
struct RefGrant {
  std::size_t size;
  const void* owner;
};
using RefMap = std::map<const std::byte*, RefGrant>;

Grant reference_lookup(const RefMap& ref, const std::byte* p) {
  auto it = ref.upper_bound(p);
  if (it == ref.begin()) return {};
  --it;
  if (p >= it->first + it->second.size) return {};
  return {const_cast<std::byte*>(it->first), it->second.size,
          it->second.owner};
}

void expect_same(const SystemArena& arena, const RefMap& ref,
                 const std::byte* p, const char* kind) {
  const Grant got = arena.grant_of(p);
  const Grant want = reference_lookup(ref, p);
  EXPECT_EQ(got.base, want.base) << kind;
  EXPECT_EQ(got.size, want.size) << kind;
  EXPECT_EQ(got.owner, want.owner) << kind;
}

class PageMapReference : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PageMapReference, QueriesMatchAReferenceMapUnderRandomChurn) {
  const std::size_t page = GetParam();
  SystemArena arena(0, page);
  RefMap ref;
  std::vector<const std::byte*> dead;  // released bases, maybe reused
  std::mt19937 rng(7);
  const int local = 0;  // never granted: lives outside the slab
  for (int step = 0; step < 3000; ++step) {
    if (ref.empty() || rng() % 5 < 3) {
      // Up to four pages, so multi-page grants are common.
      const std::size_t bytes = 1 + rng() % (4 * page);
      const void* owner = &kTags[rng() % 3];
      std::size_t granted = 0;
      std::byte* p = arena.request(bytes, owner, &granted);
      ASSERT_NE(p, nullptr);
      ASSERT_EQ(granted, arena.rounded(bytes));
      ASSERT_TRUE(ref.emplace(p, RefGrant{granted, owner}).second)
          << "a live base was granted twice";
    } else {
      auto it = ref.begin();
      std::advance(it, static_cast<long>(rng() % ref.size()));
      arena.release(const_cast<std::byte*>(it->first));
      dead.push_back(it->first);
      ref.erase(it);
    }
    ASSERT_EQ(arena.live_chunks(), ref.size());
    for (const auto& [base, g] : ref) {
      expect_same(arena, ref, base, "base");
      expect_same(arena, ref, base + rng() % g.size, "interior");
      expect_same(arena, ref, base + g.size - 1, "last byte");
      expect_same(arena, ref, base + g.size, "one past end");
    }
    for (const std::byte* p : dead) expect_same(arena, ref, p, "released");
    EXPECT_FALSE(arena.grant_of(&local)) << "never granted";
    if (testing::Test::HasFailure()) return;
  }
  for (const auto& [base, g] : ref) {
    arena.release(const_cast<std::byte*>(base));
  }
  EXPECT_EQ(arena.live_chunks(), 0u);
  for (const std::byte* p : dead) EXPECT_FALSE(arena.grant_of(p));
}

INSTANTIATE_TEST_SUITE_P(PageSizes, PageMapReference,
                         ::testing::Values(std::size_t{256},
                                           std::size_t{4096}));

TEST(SystemArena, PageMapEmptyBeyondTheFrontier) {
  SystemArena arena;
  std::byte* a = arena.request(4096, kOwnerA);
  EXPECT_FALSE(arena.grant_of(a + 4096)) << "the frontier";
  EXPECT_FALSE(arena.grant_of(a + (std::size_t{1} << 20)))
      << "reserved slab beyond the frontier";
  arena.release(a);
  EXPECT_FALSE(arena.grant_of(a)) << "frontier retreated over the grant";
}

TEST(SystemArena, SubGranuleGrantsCoverOnlyTheirBytes) {
  SystemArena arena(0, 8);  // grants carve whole 16-byte granules
  std::byte* a = arena.request(8, kOwnerA);
  std::byte* b = arena.request(8, kOwnerA);
  EXPECT_EQ(b - a, 16);
  EXPECT_EQ(arena.grant_of(a + 7).base, a);
  EXPECT_FALSE(arena.grant_of(a + 8)) << "carve padding is no grant's";
  arena.release(a);
  arena.release(b);
}

TEST(SystemArena, ScriptedSequencePinsLowestOffsetFirstReuse) {
  SystemArena arena;
  std::byte* a = arena.request(4096, kOwnerA);
  auto offset = [a](const std::byte* p) {
    return static_cast<std::size_t>(p - a);
  };
  std::byte* b = arena.request(8192, kOwnerA);
  std::byte* c = arena.request(4096, kOwnerA);
  arena.release(b);
  std::byte* d = arena.request(4096, kOwnerA);  // first half of b's hole
  std::byte* e = arena.request(8192, kOwnerA);  // hole too small: bump
  arena.release(c);                             // merges with the hole
  std::byte* f = arena.request(8192, kOwnerA);
  EXPECT_EQ(offset(b), 4096u);
  EXPECT_EQ(offset(c), 12288u);
  EXPECT_EQ(offset(d), 4096u);
  EXPECT_EQ(offset(e), 16384u);
  EXPECT_EQ(offset(f), 8192u);
  EXPECT_EQ(arena.grant_of(f + 4096).base, f) << "both pages map to f";
  for (std::byte* p : {a, d, e, f}) arena.release(p);
  EXPECT_EQ(arena.live_chunks(), 0u);
}

TEST(SystemArena, ReleaseAllReturnsOnlyTheOwnersGrants) {
  SystemArena arena;
  const void* other = &kTags[1];
  std::byte* a = arena.request(4096, kOwnerA);
  std::byte* b = arena.request(3 * 4096, other);
  std::byte* c = arena.request(2 * 4096, kOwnerA);
  arena.release_all(kOwnerA);
  EXPECT_EQ(arena.live_chunks(), 1u);
  EXPECT_FALSE(arena.grant_of(a));
  EXPECT_FALSE(arena.grant_of(c));
  EXPECT_EQ(arena.grant_of(b + 4096).owner, other);
  EXPECT_EQ(arena.footprint(), 3u * 4096);
  arena.release(b);
}

TEST(SystemArenaDeathTest, ReleaseOfAnInteriorPointerAborts) {
  SystemArena arena;
  std::byte* a = arena.request(8192, kOwnerA);
  EXPECT_DEATH(arena.release(a + 4096), "not a live grant");
  arena.release(a);
}

TEST(SystemArenaDeathTest, ReleaseOfAForeignPointerAborts) {
  SystemArena arena;
  std::byte* a = arena.request(4096, kOwnerA);
  std::byte local[16] = {};
  EXPECT_DEATH(arena.release(local), "not a live grant");
  arena.release(a);
}

TEST(SystemArenaDeathTest, DoubleReleaseAborts) {
  SystemArena arena;
  std::byte* a = arena.request(4096, kOwnerA);
  std::byte* b = arena.request(4096, kOwnerA);  // keeps a below the frontier
  arena.release(a);
  EXPECT_DEATH(arena.release(a), "not a live grant");
  arena.release(b);
}

}  // namespace
}  // namespace dmm::sysmem
