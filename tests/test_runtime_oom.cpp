// The runtime front's OOM policies (runtime/oom.h), driven both through
// the fault-injection seam (inject_arena_exhaustion) and through a real
// capacity-bounded arena.  One policy per contract: die aborts loudly,
// null returns nullptr and leaves the allocator usable, callback gets a
// release-and-retry loop.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/runtime/designed_allocator.h"
#include "dmm/runtime/oom.h"

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace dmm::runtime {
namespace {

/// Cache-off options: with thread caching enabled, slow_malloc flushes the
/// cache and retries before the policy fires, consuming a second injected
/// failure — cache-off makes "inject N" mean exactly N failing mallocs.
RuntimeOptions no_cache_options(OomPolicy policy) {
  RuntimeOptions opts;
  opts.thread_cache_bytes = 0;
  opts.oom_policy = policy;
  return opts;
}

TEST(RuntimeOom, NullPolicyReturnsNullptrAndStaysUsable) {
  DesignedAllocator a(alloc::drr_paper_config(),
                      no_cache_options(OomPolicy::kNull));
  a.inject_arena_exhaustion(1);
  EXPECT_EQ(a.malloc(100), nullptr);

  // The failure must be contained: the next call works, and the books
  // balance.
  void* p = a.malloc(100);
  ASSERT_NE(p, nullptr);
  a.free(p);
  const TelemetrySnapshot t = a.telemetry();
  EXPECT_EQ(t.oom_returned_null, 1u);
  EXPECT_EQ(t.alloc_count, 1u) << "the failed call is not an allocation";
  EXPECT_EQ(t.free_count, 1u);
  EXPECT_EQ(t.bytes_live, 0u);
}

TEST(RuntimeOom, NullPolicyWithRealArenaExhaustion) {
  // A genuinely tiny arena: allocate until it is full, expect nullptr
  // (not an abort), then confirm freeing restores service.
  RuntimeOptions opts = no_cache_options(OomPolicy::kNull);
  opts.arena_capacity_bytes = 256 * 1024;
  DesignedAllocator a(alloc::drr_paper_config(), opts);

  std::vector<void*> live;
  void* p = nullptr;
  while ((p = a.malloc(4096)) != nullptr) {
    live.push_back(p);
    ASSERT_LT(live.size(), 1000u) << "capacity bound never hit";
  }
  EXPECT_GT(a.telemetry().oom_returned_null, 0u);
  ASSERT_FALSE(live.empty());

  // Release everything; the allocator must serve again.
  for (void* q : live) a.free(q);
  void* again = a.malloc(4096);
  EXPECT_NE(again, nullptr);
  a.free(again);
}

TEST(RuntimeOomDeathTest, DiePolicyAbortsWithTheFailedRequest) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DesignedAllocator a(alloc::drr_paper_config(),
                      no_cache_options(OomPolicy::kDie));
  a.inject_arena_exhaustion(1);
  EXPECT_DEATH(
      { (void)a.malloc(12345); },
      "out of memory allocating 12345 bytes");
}

TEST(RuntimeOomDeathTest, DoubleFreeAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Cache-off so the second free is a wild pointer, not a cached block —
  // both must abort, this pins the uncached path.
  DesignedAllocator a(alloc::drr_paper_config(),
                      no_cache_options(OomPolicy::kNull));
  void* p = a.malloc(64);
  ASSERT_NE(p, nullptr);
  a.free(p);
  EXPECT_DEATH({ a.free(p); }, "wild or double free");
}

TEST(RuntimeOomDeathTest, DoubleFreeOfACachedBlockAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DesignedAllocator a(alloc::drr_paper_config());  // caches on
  void* p = a.malloc(128);
  ASSERT_NE(p, nullptr);
  a.free(p);  // parks the block in the thread cache
  EXPECT_DEATH({ a.free(p); }, "double free of a cached block");
}

// The tripwire on the block table: a pointer resolves to a live block only
// where one starts, and only while it is out of every cache and the core.

TEST(RuntimeOomDeathTest, FreeOfAStackAddressAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DesignedAllocator a(alloc::drr_paper_config());
  int local = 0;
  EXPECT_DEATH({ a.free(&local); }, "wild or double free");
}

TEST(RuntimeOomDeathTest, FreeOfAnInteriorPointerAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DesignedAllocator a(alloc::drr_paper_config());
  auto* p = static_cast<unsigned char*>(a.malloc(64));
  ASSERT_NE(p, nullptr);
  EXPECT_DEATH({ a.free(p + 8); }, "wild or double free");
  a.free(p);
}

TEST(RuntimeOomDeathTest, FreeOfABlockEvictedToTheCoreAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  RuntimeOptions opts;
  opts.thread_cache_bin_entries = 1;
  DesignedAllocator a(alloc::drr_paper_config(), opts);
  void* p = a.malloc(128);
  void* q = a.malloc(128);
  ASSERT_NE(p, nullptr);
  ASSERT_NE(q, nullptr);
  a.free(p);
  a.free(q);  // the one-entry bin evicts p
  a.trim();   // and the pending list hands it to the core
  EXPECT_DEATH({ a.free(p); }, "wild or double free");
}

TEST(RuntimeOomDeathTest, ReallocOfACachedBlockAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DesignedAllocator a(alloc::drr_paper_config());  // caches on
  void* p = a.malloc(128);
  ASSERT_NE(p, nullptr);
  a.free(p);  // parks the block in the thread cache
  EXPECT_DEATH({ (void)a.realloc(p, 256); },
               "realloc of a pointer this allocator does not own");
}

#if defined(__linux__)
TEST(RuntimeOomDeathTest, FrontWithoutRoomForItsBlockTableFailsEveryMalloc) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  rlimit as{};
  ASSERT_EQ(getrlimit(RLIMIT_AS, &as), 0);
  if (as.rlim_max != RLIM_INFINITY) GTEST_SKIP() << "address space capped";
  // In a child: room for the arena's slab but not for the table beside
  // it.  The front must come up and refuse memory through its policy.
  const auto refuses_every_malloc = [] {
    long pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    const rlim_t room = static_cast<rlim_t>(pages) * sysconf(_SC_PAGESIZE) +
                        sysmem::SystemArena::kSlabBytes + (rlim_t{256} << 20);
    const rlimit capped{room, RLIM_INFINITY};
    if (setrlimit(RLIMIT_AS, &capped) != 0) std::_Exit(2);
    RuntimeOptions opts;
    opts.oom_policy = OomPolicy::kNull;
    DesignedAllocator a(alloc::drr_paper_config(), opts);
    const bool refused = a.malloc(64) == nullptr &&
                         a.malloc(std::size_t{1} << 20) == nullptr &&
                         a.telemetry().oom_returned_null == 2;
    std::_Exit(refused ? 0 : 1);
  };
  EXPECT_EXIT(refuses_every_malloc(), ::testing::ExitedWithCode(0), "");
}
#endif

TEST(RuntimeOom, UsableSizeIsZeroForInteriorAndCachedBlocks) {
  DesignedAllocator a(alloc::drr_paper_config());  // caches on
  auto* p = static_cast<unsigned char*>(a.malloc(128));
  ASSERT_NE(p, nullptr);
  EXPECT_GE(a.usable_size(p), 128u);
  EXPECT_EQ(a.usable_size(p + 8), 0u) << "no block starts inside a block";
  a.free(p);
  EXPECT_EQ(a.usable_size(p), 0u) << "a cached block is not live";
}

TEST(RuntimeOom, CallbackReleasesAndRetries) {
  // The release-and-retry contract on a real exhausted arena: the hoard
  // holds the memory, the callback frees some of it, the retry succeeds.
  RuntimeOptions opts = no_cache_options(OomPolicy::kCallback);
  opts.arena_capacity_bytes = 256 * 1024;
  DesignedAllocator* alloc_ptr = nullptr;
  std::vector<void*> hoard;
  opts.oom_callback = [&](std::size_t, unsigned) {
    if (hoard.empty()) return false;
    // Free a batch — one block may coalesce into too small a hole.
    for (int i = 0; i < 8 && !hoard.empty(); ++i) {
      alloc_ptr->free(hoard.back());
      hoard.pop_back();
    }
    return true;
  };
  DesignedAllocator a(alloc::drr_paper_config(), opts);
  alloc_ptr = &a;

  while (true) {
    void* p = a.malloc(4096);
    ASSERT_NE(p, nullptr) << "callback had memory to release";
    hoard.push_back(p);
    if (a.telemetry().oom_callback_recovered > 0) break;
    ASSERT_LT(hoard.size(), 1000u) << "capacity bound never hit";
  }
  const TelemetrySnapshot t = a.telemetry();
  EXPECT_GT(t.oom_callback_invocations, 0u);
  EXPECT_GT(t.oom_callback_recovered, 0u);
  EXPECT_EQ(t.oom_returned_null, 0u) << "every exhaustion recovered";
  for (void* p : hoard) a.free(p);
}

TEST(RuntimeOom, CallbackRetryLimitBoundsTheLoop) {
  RuntimeOptions opts = no_cache_options(OomPolicy::kCallback);
  opts.oom_retry_limit = 3;
  unsigned calls = 0;
  unsigned last_attempt = 0;
  opts.oom_callback = [&](std::size_t bytes, unsigned attempt) {
    EXPECT_EQ(bytes, 100u);
    ++calls;
    last_attempt = attempt;
    return true;  // always "retry", never actually releases anything
  };
  DesignedAllocator a(alloc::drr_paper_config(), opts);
  // Every retry's core_allocate must fail too: 1 initial + 3 retries.
  a.inject_arena_exhaustion(4);
  EXPECT_EQ(a.malloc(100), nullptr);
  EXPECT_EQ(calls, 3u);
  EXPECT_EQ(last_attempt, 3u) << "attempt numbers the invocation, from 1";
  const TelemetrySnapshot t = a.telemetry();
  EXPECT_EQ(t.oom_callback_invocations, 3u);
  EXPECT_EQ(t.oom_callback_recovered, 0u);
  EXPECT_EQ(t.oom_returned_null, 1u) << "gave up as null after the limit";
}

TEST(RuntimeOom, CallbackDecliningStopsImmediately) {
  RuntimeOptions opts = no_cache_options(OomPolicy::kCallback);
  unsigned calls = 0;
  opts.oom_callback = [&](std::size_t, unsigned) {
    ++calls;
    return false;  // nothing to release
  };
  DesignedAllocator a(alloc::drr_paper_config(), opts);
  a.inject_arena_exhaustion(1);
  EXPECT_EQ(a.malloc(100), nullptr);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(a.telemetry().oom_returned_null, 1u);
}

TEST(RuntimeOom, MissingCallbackActsAsNull) {
  RuntimeOptions opts = no_cache_options(OomPolicy::kCallback);
  // No callback installed: the policy degrades to null, never crashes.
  DesignedAllocator a(alloc::drr_paper_config(), opts);
  a.inject_arena_exhaustion(1);
  EXPECT_EQ(a.malloc(100), nullptr);
  EXPECT_EQ(a.telemetry().oom_returned_null, 1u);
}

TEST(RuntimeOom, CachedMemoryIsReclaimedBeforeThePolicyFires) {
  // With caches ON and the arena truly full, the calling thread's cached
  // blocks must flow back to the core before any OOM policy triggers.
  RuntimeOptions opts;
  opts.oom_policy = OomPolicy::kNull;
  opts.arena_capacity_bytes = 256 * 1024;
  DesignedAllocator a(alloc::drr_paper_config(), opts);

  std::vector<void*> live;
  void* p = nullptr;
  while ((p = a.malloc(4096)) != nullptr) {
    live.push_back(p);
    ASSERT_LT(live.size(), 1000u);
  }
  // Free half — the blocks sit in the thread cache, the arena is still
  // fully committed to the core's pools.
  const std::size_t half = live.size() / 2;
  for (std::size_t i = 0; i < half; ++i) a.free(live[i]);
  live.erase(live.begin(),
             live.begin() + static_cast<std::ptrdiff_t>(half));

  // This allocation can only succeed if the cache is reclaimed first.
  void* q = a.malloc(4096);
  EXPECT_NE(q, nullptr) << "cache reclaim must precede the OOM policy";
  a.free(q);
  for (void* r : live) a.free(r);
}

/// Caches on with one-entry bins, so a thread's second free of a size
/// class evicts the first into the thread's pending list.
RuntimeOptions pending_options(OomPolicy policy) {
  RuntimeOptions opts;
  opts.oom_policy = policy;
  opts.arena_capacity_bytes = 256 * 1024;
  opts.thread_cache_bin_entries = 1;
  return opts;
}

TEST(RuntimeOom, PendingEvictionsServeTheNextCoreAllocation) {
  // How many 4 KiB blocks fill the arena: the design is deterministic, so
  // a second front filled with exactly that many has no room left.
  std::size_t fit = 0;
  {
    DesignedAllocator probe(alloc::drr_paper_config(),
                            pending_options(OomPolicy::kNull));
    std::vector<void*> live;
    while (void* p = probe.malloc(4096)) {
      live.push_back(p);
      ASSERT_LT(live.size(), 1000u) << "capacity bound never hit";
    }
    fit = live.size();
    for (void* p : live) probe.free(p);
  }
  ASSERT_GE(fit, 2u);

  DesignedAllocator a(alloc::drr_paper_config(),
                      pending_options(OomPolicy::kNull));
  std::vector<void*> live;
  for (std::size_t i = 0; i < fit; ++i) {
    live.push_back(a.malloc(4096));
    ASSERT_NE(live.back(), nullptr);
  }
  // The first block goes to the pending list, the second to the bin.
  a.free(live[0]);
  a.free(live[1]);
  void* from_bin = a.malloc(4096);
  EXPECT_EQ(from_bin, live[1]);
  // The bin is empty now; the only memory that fits is the pending block.
  void* from_pending = a.malloc(4096);
  EXPECT_NE(from_pending, nullptr);
  const TelemetrySnapshot t = a.telemetry();
  EXPECT_EQ(t.oom_returned_null, 0u);
  EXPECT_EQ(t.cache_hits, 1u);
  a.free(from_bin);
  a.free(from_pending);
  for (std::size_t i = 2; i < fit; ++i) a.free(live[i]);
}

TEST(RuntimeOom, CallbackFreesThatEvictIntoPendingServeTheRetry) {
  // The callback's frees land in the calling thread's cache: one stays in
  // the bin, the rest are evicted to the pending list, which the retry's
  // core-lock hold drains before it allocates.
  RuntimeOptions opts = pending_options(OomPolicy::kCallback);
  DesignedAllocator* alloc_ptr = nullptr;
  std::vector<void*> hoard;
  opts.oom_callback = [&](std::size_t, unsigned) {
    if (hoard.empty()) return false;
    for (int i = 0; i < 8 && !hoard.empty(); ++i) {
      alloc_ptr->free(hoard.back());
      hoard.pop_back();
    }
    return true;
  };
  DesignedAllocator a(alloc::drr_paper_config(), opts);
  alloc_ptr = &a;

  while (true) {
    void* p = a.malloc(4096);
    ASSERT_NE(p, nullptr) << "callback had memory to release";
    hoard.push_back(p);
    if (a.telemetry().oom_callback_recovered > 0) break;
    ASSERT_LT(hoard.size(), 1000u) << "capacity bound never hit";
  }
  const TelemetrySnapshot t = a.telemetry();
  EXPECT_EQ(t.oom_callback_invocations, 1u) << "the first retry succeeds";
  EXPECT_EQ(t.oom_callback_recovered, 1u);
  EXPECT_EQ(t.oom_returned_null, 0u);
  for (void* p : hoard) a.free(p);
}

// A request beyond anything the arena can grant is an out-of-memory
// condition like any other: the policy decides, nothing wraps.
constexpr std::size_t kHuge = std::numeric_limits<std::size_t>::max();

TEST(RuntimeOom, OversizedMallocReturnsNullptrUnderNullPolicy) {
  DesignedAllocator a(alloc::drr_paper_config());  // caches on, kNull
  EXPECT_EQ(a.malloc(kHuge), nullptr);
  EXPECT_EQ(a.telemetry().oom_returned_null, 1u);
  void* p = a.malloc(100);
  ASSERT_NE(p, nullptr);
  a.free(p);
  EXPECT_EQ(a.telemetry().bytes_live, 0u);
}

TEST(RuntimeOomDeathTest, OversizedMallocDiesUnderDiePolicy) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  DesignedAllocator a(alloc::drr_paper_config(),
                      no_cache_options(OomPolicy::kDie));
  EXPECT_DEATH({ (void)a.malloc(kHuge); },
               "out of memory allocating " + std::to_string(kHuge) +
                   " bytes");
}

TEST(RuntimeOom, OversizedReallocFailsAndKeepsTheOldBlock) {
  DesignedAllocator a(alloc::drr_paper_config());
  auto* p = static_cast<unsigned char*>(a.malloc(100));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5A, 100);
  EXPECT_EQ(a.realloc(p, kHuge), nullptr);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(p[i], 0x5A) << i;
  EXPECT_GE(a.usable_size(p), 100u) << "the old block is still live";
  a.free(p);
  EXPECT_EQ(a.telemetry().bytes_live, 0u);
}

}  // namespace
}  // namespace dmm::runtime
