// The deployable runtime front (runtime/designed_allocator.h): malloc/
// free/realloc semantics, thread-cache behaviour (deferred eviction
// release, shell lifetime), the cache-off replay parity that is the
// designed-bound gate, and the concurrent integrity stress the TSan job
// runs.

#include "dmm/runtime/designed_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/alloc/policy_core.h"
#include "dmm/core/simulator.h"
#include "dmm/core/trace.h"
#include "dmm/workloads/workload.h"

namespace dmm::runtime {
namespace {

TEST(DesignedAllocator, MallocFreeBasics) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.malloc(100);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(a.usable_size(p), 100u);
  std::memset(p, 0xAB, 100);
  a.free(p);
  a.free(nullptr);  // no-op per the malloc contract
}

TEST(DesignedAllocator, ZeroByteRequestYieldsAUniqueBlock) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.malloc(0);
  void* q = a.malloc(0);
  ASSERT_NE(p, nullptr);
  ASSERT_NE(q, nullptr);
  EXPECT_NE(p, q);
  a.free(p);
  a.free(q);
}

TEST(DesignedAllocator, UsableSizeIsZeroForForeignPointers) {
  DesignedAllocator a(alloc::drr_paper_config());
  int local = 0;
  EXPECT_EQ(a.usable_size(&local), 0u);
  EXPECT_EQ(a.usable_size(nullptr), 0u);
}

TEST(DesignedAllocator, ReallocGrowsPreservingContents) {
  DesignedAllocator a(alloc::drr_paper_config());
  char* p = static_cast<char*>(a.malloc(64));
  ASSERT_NE(p, nullptr);
  for (int i = 0; i < 64; ++i) p[i] = static_cast<char>(i);
  char* q = static_cast<char*>(a.realloc(p, 4096));
  ASSERT_NE(q, nullptr);
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(q[i], static_cast<char>(i)) << "byte " << i;
  }
  a.free(q);
}

TEST(DesignedAllocator, ReallocNullptrActsAsMalloc) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.realloc(nullptr, 128);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(a.usable_size(p), 128u);
  a.free(p);
}

TEST(DesignedAllocator, ReallocToZeroFrees) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.malloc(128);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(a.realloc(p, 0), nullptr);
  const TelemetrySnapshot t = a.telemetry();
  EXPECT_EQ(t.alloc_count, t.free_count);
  EXPECT_EQ(t.bytes_live, 0u);
}

TEST(DesignedAllocator, ReallocWithinCapacityStaysInPlace) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.malloc(200);
  ASSERT_NE(p, nullptr);
  const std::size_t cap = a.usable_size(p);
  // Shrinking (and growing back within the granted capacity) must not
  // move the block.
  EXPECT_EQ(a.realloc(p, 50), p);
  EXPECT_EQ(a.realloc(p, cap), p);
  a.free(p);
}

TEST(DesignedAllocator, FreedBlockIsServedBackFromTheThreadCache) {
  DesignedAllocator a(alloc::drr_paper_config());
  // A class-sized request: the granted capacity files into the same bin
  // the next request of that size pops from.
  void* p = a.malloc(128);
  ASSERT_NE(p, nullptr);
  ASSERT_GE(a.usable_size(p), 128u);
  a.free(p);
  void* q = a.malloc(128);
  EXPECT_EQ(q, p) << "same size class, same thread: cache must serve it";
  EXPECT_EQ(a.telemetry().cache_hits, 1u);
  a.free(q);
}

TEST(DesignedAllocator, CacheNeverServesABlockTooSmallForTheRequest) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* small = a.malloc(32);
  ASSERT_NE(small, nullptr);
  a.free(small);
  void* big = a.malloc(4000);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(a.usable_size(big), 4000u);
  a.free(big);
}

TEST(DesignedAllocator, TrimReturnsTheCallingThreadsCache) {
  DesignedAllocator a(alloc::drr_paper_config());
  std::vector<void*> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(a.malloc(64));
  for (void* p : blocks) a.free(p);
  a.trim();
  // After a trim the cache is empty: the next alloc is a core miss.
  const std::uint64_t hits_before = a.telemetry().cache_hits;
  void* p = a.malloc(64);
  EXPECT_EQ(a.telemetry().cache_hits, hits_before);
  a.free(p);
}

TEST(DesignedAllocator, DisabledCacheForwardsEverythingToTheCore) {
  RuntimeOptions opts;
  opts.thread_cache_bytes = 0;
  DesignedAllocator a(alloc::drr_paper_config(), opts);
  void* p = a.malloc(100);
  ASSERT_NE(p, nullptr);
  a.free(p);
  void* q = a.malloc(100);
  ASSERT_NE(q, nullptr);
  a.free(q);
  EXPECT_EQ(a.telemetry().cache_hits, 0u);
}

TEST(DesignedAllocator, TelemetryTracksLiveBytesAndPeak) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* p = a.malloc(1000);
  void* q = a.malloc(500);
  TelemetrySnapshot t = a.telemetry();
  EXPECT_EQ(t.alloc_count, 2u);
  EXPECT_EQ(t.bytes_live, 1500u);
  EXPECT_EQ(t.peak_bytes_live, 1500u);
  a.free(q);
  t = a.telemetry();
  EXPECT_EQ(t.bytes_live, 1000u);
  EXPECT_EQ(t.peak_bytes_live, 1500u) << "peak is monotone";
  a.free(p);
  t = a.telemetry();
  EXPECT_EQ(t.bytes_live, 0u);
  EXPECT_EQ(t.free_count, 2u);
}

/// Replays @p trace through the front (id -> pointer map like the
/// simulator's), returning the arena peak the deployment actually imposed.
std::size_t replay_through_front(const core::AllocTrace& trace,
                                 DesignedAllocator& a) {
  std::unordered_map<std::uint32_t, void*> live;
  for (const core::AllocEvent& e : trace.events()) {
    if (e.op == core::AllocEvent::Op::kAlloc) {
      void* p = a.malloc(e.size);
      if (p != nullptr) live[e.id] = p;
    } else {
      const auto it = live.find(e.id);
      if (it != live.end()) {
        a.free(it->second);
        live.erase(it);
      }
    }
  }
  for (const auto& [id, p] : live) a.free(p);
  return a.telemetry().arena.peak_footprint;
}

TEST(DesignedAllocator, CacheOffReplayMatchesTheSimulatedPeakExactly) {
  // The determinism escape hatch: with caching disabled the front forwards
  // calls 1:1 to the policy core, so a single-threaded replay must hit the
  // arena in exactly the simulator's order — equal peaks to the byte.
  // This is CI's designed-bound gate for the deployed front.
  core::AllocTrace trace =
      workloads::record_trace(workloads::case_study("drr"), /*seed=*/1);
  if (trace.events().size() > 20000) {
    trace.events().resize(20000);
    trace.close_leaks();
  }
  const alloc::DmmConfig cfg = alloc::drr_paper_config();

  sysmem::SystemArena arena;
  alloc::PolicyCore core(arena, cfg, "parity", /*strict_accounting=*/false);
  const core::SimResult sim = core::simulate(trace, core);

  RuntimeOptions opts;
  opts.thread_cache_bytes = 0;
  DesignedAllocator front(cfg, opts);
  const std::size_t deployed_peak = replay_through_front(trace, front);

  EXPECT_EQ(deployed_peak, sim.peak_footprint);
}

TEST(DesignedAllocator, CachesOnSingleThreadReplayMakesPinnedCoreCalls) {
  // With caches on, evicted blocks reach the core inside the thread's next
  // core-lock hold rather than one by one, in the same order relative to
  // its own core calls.  A single-threaded replay therefore drives the
  // arena exactly as an eager release would: same peak, same chunk
  // requests and releases.  The numbers are pinned from that eager front.
  core::AllocTrace trace =
      workloads::record_trace(workloads::case_study("drr"), /*seed=*/1);
  ASSERT_GT(trace.events().size(), 20000u);
  trace.events().resize(20000);
  trace.close_leaks();

  DesignedAllocator front(alloc::drr_paper_config());
  const std::size_t peak = replay_through_front(trace, front);
  const sysmem::ArenaStats arena = front.telemetry().arena;
  EXPECT_EQ(peak, 245760u);
  EXPECT_EQ(arena.request_count, 15u);
  EXPECT_EQ(arena.release_count, 1u);
}

TEST(DesignedAllocator, CrossThreadFreeIsSafe) {
  DesignedAllocator a(alloc::drr_paper_config());
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) {
    void* p = a.malloc(64 + 8 * static_cast<std::size_t>(i));
    ASSERT_NE(p, nullptr);
    blocks.push_back(p);
  }
  std::thread t([&a, &blocks] {
    for (void* p : blocks) a.free(p);
  });
  t.join();
  const TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(snap.alloc_count, snap.free_count);
  EXPECT_EQ(snap.bytes_live, 0u);
}

TEST(DesignedAllocator, ThreadExitDrainsItsCacheBackToTheAllocator) {
  DesignedAllocator a(alloc::drr_paper_config());
  std::thread t([&a] {
    std::vector<void*> blocks;
    for (int i = 0; i < 32; ++i) blocks.push_back(a.malloc(128));
    for (void* p : blocks) a.free(p);
    // Thread exits with a warm cache; the TLS destructor must flush it.
  });
  t.join();
  const TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(snap.alloc_count, snap.free_count);
  EXPECT_EQ(snap.bytes_live, 0u);
  // The allocator can be destroyed and reused after the thread is gone —
  // covered by leaving scope here and by the stress below.
}

/// Thread caches whose bins hold one block each: nearly every cached free
/// evicts, so the pending-list path carries the traffic.
RuntimeOptions one_entry_bins() {
  RuntimeOptions opts;
  opts.thread_cache_bin_entries = 1;
  return opts;
}

/// Frees three same-class blocks on the calling thread with one-entry
/// bins: the last stays cached, the first two wait in the pending list.
void leave_pending_evictions(DesignedAllocator& a) {
  std::vector<void*> blocks;
  for (int i = 0; i < 3; ++i) blocks.push_back(a.malloc(128));
  for (void* p : blocks) a.free(p);
}

TEST(DesignedAllocator, ThreadExitReleasesItsPendingEvictions) {
  DesignedAllocator a(alloc::drr_paper_config(), one_entry_bins());
  std::thread t([&a] { leave_pending_evictions(a); });
  t.join();
  const TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(snap.alloc_count, snap.free_count);
  EXPECT_EQ(snap.bytes_live, 0u);
  // Every block is back in the core, so its chunk went back to the arena.
  EXPECT_EQ(snap.arena.current_footprint, 0u);
}

TEST(DesignedAllocator, AllocatorDestroyedWhileAThreadHasPendingEvictions) {
  auto a = std::make_unique<DesignedAllocator>(alloc::drr_paper_config(),
                                               one_entry_bins());
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool destroyed = false;
  std::size_t shells_after = 0;
  std::thread t([&] {
    leave_pending_evictions(*a);
    std::unique_lock<std::mutex> lock(mu);
    parked = true;
    cv.notify_all();
    cv.wait(lock, [&] { return destroyed; });
    // The destroyed allocator's shell is an orphan; the next lookup on
    // this thread deletes it.
    DesignedAllocator other(alloc::drr_paper_config());
    other.free(other.malloc(64));
    shells_after = DesignedAllocator::thread_cache_shells();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }
  // The thread is quiescent with a non-empty pending list.
  const TelemetrySnapshot snap = a->telemetry();
  EXPECT_EQ(snap.alloc_count, snap.free_count);
  EXPECT_EQ(snap.bytes_live, 0u);
  a.reset();
  {
    const std::lock_guard<std::mutex> lock(mu);
    destroyed = true;
  }
  cv.notify_all();
  t.join();
  EXPECT_EQ(shells_after, 1u);
}

TEST(DesignedAllocator, OrphanedCacheShellsArePrunedOnLookup) {
  // Each destroyed allocator orphans the calling thread's cache shell; the
  // thread's next lookup must delete it, or every malloc walks them all.
  std::size_t worst = 0;
  std::thread t([&worst] {
    for (int cycle = 0; cycle < 1000; ++cycle) {
      DesignedAllocator a(alloc::drr_paper_config());
      a.free(a.malloc(64));
      worst = std::max(worst, DesignedAllocator::thread_cache_shells());
    }
    worst = std::max(worst, DesignedAllocator::thread_cache_shells());
  });
  t.join();
  EXPECT_LE(worst, 1u);
}

void run_integrity_stress(const RuntimeOptions& opts) {
  DesignedAllocator a(alloc::drr_paper_config(), opts);
  constexpr unsigned kThreads = 4;
  constexpr int kSteps = 4000;
  std::vector<std::thread> workers;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&a, tid] {
      std::vector<std::pair<unsigned char*, std::size_t>> live;
      unsigned rng = 97 * (tid + 1);
      const auto fill = [tid](unsigned char* p, std::size_t n) {
        std::memset(p, 0x40 + static_cast<int>(tid), n);
      };
      const auto check = [tid](const unsigned char* p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(p[i], 0x40 + tid) << "corrupted block";
        }
      };
      for (int step = 0; step < kSteps; ++step) {
        rng = rng * 1664525u + 1013904223u;
        const unsigned action = rng % 8;
        if (live.empty() || action < 4) {
          const std::size_t n = 8 + rng % 3000;
          auto* p = static_cast<unsigned char*>(a.malloc(n));
          if (p != nullptr) {
            fill(p, n);
            live.emplace_back(p, n);
          }
        } else if (action < 7) {
          const std::size_t at = rng % live.size();
          check(live[at].first, live[at].second);
          a.free(live[at].first);
          live[at] = live.back();
          live.pop_back();
        } else {
          const std::size_t at = rng % live.size();
          check(live[at].first, live[at].second);
          const std::size_t n = 8 + rng % 6000;
          auto* p = static_cast<unsigned char*>(
              a.realloc(live[at].first, n));
          if (p != nullptr) {
            fill(p, n);
            live[at] = {p, n};
          }
        }
      }
      for (const auto& [p, n] : live) {
        check(p, n);
        a.free(p);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(snap.alloc_count, snap.free_count) << "no allocation lost";
  EXPECT_EQ(snap.bytes_live, 0u);
}

TEST(DesignedAllocator, ConcurrentIntegrityStress) {
  // The TSan workhorse: several threads hammer malloc/free/realloc with a
  // per-block fill pattern; any lost update, double serve, or overlap
  // corrupts a pattern and fails loudly.
  run_integrity_stress(RuntimeOptions{});
}

TEST(DesignedAllocator, ConcurrentIntegrityStressThroughPendingEvictions) {
  // The same, with one-entry bins: cached frees keep evicting, so the
  // deferred release (pending lists drained under the core lock) is hot.
  run_integrity_stress(one_entry_bins());
}

}  // namespace
}  // namespace dmm::runtime
