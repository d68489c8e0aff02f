// The deployable runtime front (runtime/designed_allocator.h): malloc/
// free/realloc semantics, thread-cache behaviour (deferred eviction
// release, shell lifetime), the cache-off replay parity that is the
// designed-bound gate, and the concurrent integrity stress the TSan job
// runs.

#include "dmm/runtime/designed_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstring>
#include <limits>
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
  // A freed block is filed by its capacity's size class, the class a
  // request of the same size looks in: a class size and a size between
  // classes both come straight back.
  for (const std::size_t size : {std::size_t{128}, std::size_t{100}}) {
    DesignedAllocator a(alloc::drr_paper_config());
    void* p = a.malloc(size);
    ASSERT_NE(p, nullptr);
    ASSERT_GE(a.usable_size(p), size);
    a.free(p);
    void* q = a.malloc(size);
    EXPECT_EQ(q, p) << size << " B, same thread: the cache must serve it";
    EXPECT_EQ(a.telemetry().cache_hits, 1u) << size << " B";
    a.free(q);
  }
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

/// The first 20,000 events of the DRR case study's seed-1 trace.
core::AllocTrace drr_cut() {
  core::AllocTrace trace =
      workloads::record_trace(workloads::case_study("drr"), /*seed=*/1);
  EXPECT_GT(trace.events().size(), 20000u);
  trace.events().resize(20000);
  trace.close_leaks();
  return trace;
}

TEST(DesignedAllocator, CachesOnSingleThreadReplayMakesPinnedCoreCalls) {
  // With caches on, evicted blocks reach the core inside the thread's next
  // core-lock hold rather than one by one, in the same order relative to
  // its own core calls.  A single-threaded replay therefore drives the
  // arena exactly as an eager release would: same peak, same chunk
  // requests and releases.  The numbers are pinned from that eager front.
  const core::AllocTrace trace = drr_cut();
  DesignedAllocator front(alloc::drr_paper_config());
  const std::size_t peak = replay_through_front(trace, front);
  const sysmem::ArenaStats arena = front.telemetry().arena;
  EXPECT_EQ(peak, 147456u);
  EXPECT_EQ(arena.request_count, 9u);
  EXPECT_EQ(arena.release_count, 0u);
}

TEST(DesignedAllocator, CachesOnReplayStaysWithinOneChunkOfTheBound) {
  // Caches cost footprint only while a cached block cannot serve the
  // request the core then carves fresh: with blocks coming back for
  // requests of their own size, a single-threaded caches-on replay stays
  // within one designed chunk of the cache-off bound.
  const core::AllocTrace trace = drr_cut();
  const alloc::DmmConfig cfg = alloc::drr_paper_config();
  sysmem::SystemArena arena;
  alloc::PolicyCore core(arena, cfg, "bound", /*strict_accounting=*/false);
  const std::size_t bound = core::simulate(trace, core).peak_footprint;

  DesignedAllocator front(cfg);
  EXPECT_LE(replay_through_front(trace, front), bound + cfg.chunk_bytes);
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

TEST(DesignedAllocator, AllocatorDestroyedWhileItsThreadAllocatesElsewhere) {
  // The thread keeps a shell of each allocator it used, in first-use
  // order.  While the main thread destroys one, the thread's lookups on an
  // allocator it used later walk past that shell, find it orphaned and
  // delete it: the delete must not overlap the destructor's last touch.
  constexpr int kRounds = 200;
  std::atomic<DesignedAllocator*> next{nullptr};
  std::atomic<int> used{0};
  std::atomic<int> destroyed{0};
  std::size_t worst = 0;
  std::thread t([&] {
    for (int round = 1; round <= kRounds; ++round) {
      DesignedAllocator* a = nullptr;
      while ((a = next.exchange(nullptr)) == nullptr) std::this_thread::yield();
      a->free(a->malloc(64));
      DesignedAllocator elsewhere(alloc::drr_paper_config());
      elsewhere.free(elsewhere.malloc(64));
      used.store(round);
      while (destroyed.load() < round) elsewhere.free(elsewhere.malloc(64));
      elsewhere.free(elsewhere.malloc(64));
      worst = std::max(worst, DesignedAllocator::thread_cache_shells());
    }
  });
  for (int round = 1; round <= kRounds; ++round) {
    auto a = std::make_unique<DesignedAllocator>(alloc::drr_paper_config());
    next.store(a.get());
    while (used.load() < round) std::this_thread::yield();
    a.reset();
    destroyed.store(round);
  }
  t.join();
  EXPECT_EQ(worst, 1u) << "only the live allocator's shell is left";
}

TEST(DesignedAllocator, HugeBinEntryCapLeavesTheByteBudgetInCharge) {
  // Bins are sized by the tighter of the entry cap and the byte budget, so
  // an entry cap too large to reserve does not make free() throw.
  RuntimeOptions opts;
  opts.thread_cache_bin_entries = std::numeric_limits<std::size_t>::max() / 2;
  DesignedAllocator a(alloc::drr_paper_config(), opts);
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) blocks.push_back(a.malloc(64));
  for (void* p : blocks) a.free(p);
  void* p = a.malloc(64);
  EXPECT_EQ(p, blocks.back()) << "the cache serves its newest block";
  a.free(p);
}

/// Mallocs @p n blocks of @p size on the calling thread, then frees them
/// all; returns how many of the mallocs were cache hits.
std::uint64_t cycle_hits(DesignedAllocator& a, std::size_t n,
                         std::size_t size) {
  const std::uint64_t before = a.telemetry().cache_hits;
  std::vector<void*> blocks;
  for (std::size_t i = 0; i < n; ++i) blocks.push_back(a.malloc(size));
  for (void* p : blocks) a.free(p);
  return a.telemetry().cache_hits - before;
}

/// A second thread on @p a's roster for as long as this object lives: it
/// joins with one call, then parks, so the front counts as shared.
class SecondThread {
 public:
  explicit SecondThread(DesignedAllocator& a)
      : thread_([this, &a] {
          a.trim();  // joins the roster, touching no bin and no core
          std::unique_lock<std::mutex> lock(mu_);
          joined_ = true;
          cv_.notify_all();
          cv_.wait(lock, [this] { return leave_; });
        }) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return joined_; });
  }
  SecondThread(const SecondThread&) = delete;
  SecondThread& operator=(const SecondThread&) = delete;
  ~SecondThread() { leave(); }

  /// Lets the thread exit (leaving the roster) and joins it.
  void leave() {
    if (!thread_.joinable()) return;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      leave_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool joined_ = false;
  bool leave_ = false;
  std::thread thread_;
};

/// Bytes of further blocks a shared front's miss takes into the thread's
/// cache (kRefillBytes in designed_allocator.cpp).
constexpr std::size_t kRefillBytes = 1024;

TEST(DesignedAllocator, SharedFrontBinsHold16KBOfSmallBlocks) {
  // While a second thread uses the front, a 32-byte bin holds 16384 / 32 =
  // 512 blocks instead of the 32-entry cap, so a thread cycling 400 of
  // them keeps every one.  Each miss of the first cycle refills 1024 / 32
  // = 32 blocks: 400 mallocs are 13 misses and 387 hits, and leave 29
  // refilled blocks cached beside the 400 freed.  A one-thread front
  // keeps the cap and never refills, and a thread left alone gets the cap
  // back at its next core-lock hold.
  constexpr std::size_t kBlocks = 400;
  constexpr std::size_t kSize = 32;
  const std::uint64_t kCap = RuntimeOptions{}.thread_cache_bin_entries;
  {
    DesignedAllocator alone(alloc::drr_paper_config());
    EXPECT_EQ(cycle_hits(alone, kBlocks, kSize), 0u);
    for (int cycle = 0; cycle < 3; ++cycle) {
      EXPECT_EQ(cycle_hits(alone, kBlocks, kSize), kCap) << "one thread";
    }
    EXPECT_EQ(alone.telemetry().cache_refills, 0u);
  }
  DesignedAllocator a(alloc::drr_paper_config());
  void* big = a.malloc(1000);  // joins the roster alone
  const std::size_t big_capacity = a.usable_size(big);
  a.free(big);
  SecondThread other(a);
  // The first miss's core-lock hold sees the second thread on the roster.
  EXPECT_EQ(cycle_hits(a, kBlocks, kSize), 387u);
  TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(snap.cache_refills, 13 * kRefillBytes / kSize);
  EXPECT_EQ(snap.bytes_cached, big_capacity + (kBlocks + 29) * kSize)
      << "the 1000-byte block and 429 of 32 bytes";
  for (int cycle = 0; cycle < 3; ++cycle) {
    EXPECT_EQ(cycle_hits(a, kBlocks, kSize), kBlocks) << "shared front";
  }
  other.leave();
  // Alone again: a miss's core-lock hold drops the deeper cap.  The bin
  // still serves what it kept; the frees after that evict down to the cap.
  a.free(a.malloc(200));
  EXPECT_EQ(cycle_hits(a, kBlocks, kSize), kBlocks) << "kept while shared";
  EXPECT_EQ(cycle_hits(a, kBlocks, kSize), kCap) << "alone again";
  EXPECT_EQ(cycle_hits(a, kBlocks, kSize), kCap) << "alone again";
  EXPECT_EQ(a.telemetry().cache_refills, snap.cache_refills)
      << "a thread alone does not refill";
}

TEST(DesignedAllocator, RefillLeavesExactlyTheGrantedBlocksCached) {
  // A shared front's miss of a 32-byte block also takes 1024 / 32 more
  // into the thread's cache, filed as cached: the next 32 mallocs of the
  // size are hits and the one after is a miss.  A one-thread front's miss
  // refills nothing.
  constexpr std::size_t kSize = 32;
  {
    DesignedAllocator alone(alloc::drr_paper_config());
    void* p = alone.malloc(kSize);
    TelemetrySnapshot snap = alone.telemetry();
    EXPECT_EQ(snap.cache_refills, 0u);
    EXPECT_EQ(snap.bytes_cached, 0u);
    alone.free(p);
    snap = alone.telemetry();
    EXPECT_EQ(snap.bytes_cached, kSize) << "the freed block";
    EXPECT_EQ(snap.cache_refills, 0u);
  }
  DesignedAllocator a(alloc::drr_paper_config());
  SecondThread other(a);
  void* first = a.malloc(kSize);
  ASSERT_EQ(a.usable_size(first), kSize) << "a fresh chunk carves exactly";
  constexpr std::size_t kRefilled = kRefillBytes / kSize;
  TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(snap.alloc_count, 1u) << "a refilled block is no allocation";
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_refills, kRefilled);
  EXPECT_EQ(snap.bytes_cached, kRefilled * kSize);
  EXPECT_EQ(snap.bytes_live, kSize);
  std::vector<void*> blocks = {first};
  for (std::size_t i = 0; i < kRefilled; ++i) {
    blocks.push_back(a.malloc(kSize));
    ASSERT_EQ(a.usable_size(blocks.back()), kSize);
  }
  snap = a.telemetry();
  EXPECT_EQ(snap.cache_hits, kRefilled);
  EXPECT_EQ(snap.bytes_cached, 0u);
  std::sort(blocks.begin(), blocks.end());
  EXPECT_EQ(std::adjacent_find(blocks.begin(), blocks.end()), blocks.end())
      << "every refilled block is distinct";
  blocks.push_back(a.malloc(kSize));
  snap = a.telemetry();
  EXPECT_EQ(snap.cache_hits, kRefilled) << "the cache ran dry: a miss";
  EXPECT_EQ(snap.cache_refills, 2 * kRefilled);
  for (void* p : blocks) a.free(p);
  snap = a.telemetry();
  EXPECT_EQ(snap.bytes_live, 0u);
  EXPECT_EQ(snap.bytes_cached, (blocks.size() + kRefilled) * kSize);
}

TEST(DesignedAllocator, RefillStopsAtTheByteBudget) {
  // With a 300-byte cache budget a 32-byte miss on a shared front refills
  // 9 blocks (288 bytes), not 1024 / 32; a cache already holding 128 bytes
  // refills 5 (160 bytes).
  for (const auto& [budget, held, refilled] :
       {std::array<std::size_t, 3>{300, 0, 9},
        std::array<std::size_t, 3>{300, 128, 5}}) {
    RuntimeOptions opts;
    opts.thread_cache_bytes = budget;
    DesignedAllocator a(alloc::drr_paper_config(), opts);
    if (held > 0) a.free(a.malloc(held));  // alone: cached, no refill
    SecondThread other(a);
    void* p = a.malloc(32);
    ASSERT_EQ(a.usable_size(p), 32u);
    const TelemetrySnapshot snap = a.telemetry();
    EXPECT_EQ(snap.cache_refills, refilled) << "budget " << budget;
    EXPECT_EQ(snap.bytes_cached, held + refilled * 32) << "budget " << budget;
    EXPECT_LE(snap.bytes_cached, budget);
    a.free(p);
  }
}

TEST(DesignedAllocator, RefillNeverFiresTheOomPolicy) {
  // Under an arena budget a shared front's refills run into the full arena
  // and stop there, silently: the thread gets exactly as many 32-byte
  // blocks as a one-thread front before its first nullptr, and the policy
  // fires once, for that request.
  RuntimeOptions opts;
  opts.oom_policy = OomPolicy::kNull;
  opts.arena_capacity_bytes = 64 * 1024;
  const auto fill = [](DesignedAllocator& a, std::vector<void*>& held) {
    while (void* p = a.malloc(32)) {
      held.push_back(p);
      if (held.size() > 10000) break;
    }
  };
  std::vector<void*> alone_held;
  {
    DesignedAllocator alone(alloc::drr_paper_config(), opts);
    fill(alone, alone_held);
    EXPECT_EQ(alone.telemetry().oom_returned_null, 1u);
  }
  DesignedAllocator a(alloc::drr_paper_config(), opts);
  SecondThread other(a);
  std::vector<void*> held;
  fill(a, held);
  TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(held.size(), alone_held.size());
  EXPECT_EQ(snap.oom_returned_null, 1u);
  EXPECT_GT(snap.cache_refills, 0u);
  for (void* p : held) a.free(p);

  // On a caches-on front a malloc retries once after reclaiming its cache,
  // so two injected failures fail exactly one malloc: the refills that
  // follow take none, and every later malloc succeeds.
  a.trim();
  const std::uint64_t refills = a.telemetry().cache_refills;
  a.inject_arena_exhaustion(2);
  EXPECT_EQ(a.malloc(48), nullptr);
  std::vector<void*> after;
  for (int i = 0; i < 200; ++i) {
    after.push_back(a.malloc(48));
    ASSERT_NE(after.back(), nullptr) << "malloc " << i;
  }
  snap = a.telemetry();
  EXPECT_EQ(snap.oom_returned_null, 2u);
  EXPECT_GT(snap.cache_refills, refills);
  for (void* p : after) a.free(p);
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

/// One thread's blocks handed to another thread to free.
struct Mailbox {
  std::mutex mu;
  std::vector<void*> blocks;
};

TEST(DesignedAllocator, TelemetryIsExactAcrossThreadsAfterJoin) {
  // Four threads run a mixed malloc/free loop and pass some of their
  // blocks to the next thread to free.  Each thread requests one size,
  // two size classes away from every other thread's, and holds at most
  // kMaxOwn of its own blocks, so no bin ever fills.  All four join the
  // roster before any counted call, and none leaves before every thread
  // is done, so the front is shared throughout: a malloc is a cache hit
  // exactly when the thread's cache holds one of its own blocks (freed by
  // itself, or refilled), and a miss refills kRefillBytes / capacity of
  // the block it got.  So the hit and refill counts are known too.
  constexpr unsigned kThreads = 4;
  constexpr std::size_t kSizes[kThreads] = {32, 128, 512, 2048};
  constexpr std::size_t kMaxOwn = 16;
  constexpr int kSteps = 3000;
  DesignedAllocator a(alloc::drr_paper_config());
  std::array<Mailbox, kThreads> mail;
  std::array<std::uint64_t, kThreads> allocs{}, frees{}, hits{}, refills{};
  std::barrier joined(kThreads);
  std::barrier done(kThreads);
  std::vector<std::thread> workers;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&, tid] {
      const std::size_t size = kSizes[tid];
      Mailbox& inbox = mail[tid];
      Mailbox& next = mail[(tid + 1) % kThreads];
      std::vector<void*> own;
      std::uint64_t cached = 0;  // own blocks this thread's cache holds
      unsigned rng = 31 * (tid + 1);
      a.trim();  // joins the roster, touching no bin and no core
      joined.arrive_and_wait();
      for (int step = 0; step < kSteps; ++step) {
        rng = rng * 1664525u + 1013904223u;
        const unsigned action = (rng >> 8) % 4;
        if (own.empty() || (action < 2 && own.size() < kMaxOwn)) {
          void* p = a.malloc(size);
          if (p == nullptr) {
            ADD_FAILURE() << "malloc failed";
            break;  // still meets the others at the barrier
          }
          own.push_back(p);
          ++allocs[tid];
          if (cached > 0) {
            ++hits[tid];
            --cached;
          } else {
            const std::size_t more = kRefillBytes / a.usable_size(own.back());
            refills[tid] += more;
            cached += more;
          }
        } else if (action == 2) {
          a.free(own.back());
          own.pop_back();
          ++frees[tid];
          ++cached;
        } else {
          const std::lock_guard<std::mutex> lock(next.mu);
          next.blocks.push_back(own.back());
          own.pop_back();
        }
        if (step % 16 == 0) {
          std::vector<void*> foreign;
          {
            const std::lock_guard<std::mutex> lock(inbox.mu);
            foreign.swap(inbox.blocks);
          }
          for (void* p : foreign) a.free(p);
          frees[tid] += foreign.size();
        }
      }
      for (void* p : own) a.free(p);
      frees[tid] += own.size();
      done.arrive_and_wait();
    });
  }
  for (std::thread& w : workers) w.join();

  std::uint64_t want_allocs = 0, want_frees = 0, want_hits = 0;
  std::uint64_t want_refills = 0, in_mail = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    want_allocs += allocs[t];
    want_frees += frees[t];
    want_hits += hits[t];
    want_refills += refills[t];
    // Mailbox t holds blocks of thread t - 1's size.
    in_mail += mail[t].blocks.size() * kSizes[(t + kThreads - 1) % kThreads];
  }
  TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(snap.alloc_count, want_allocs);
  EXPECT_EQ(snap.free_count, want_frees);
  EXPECT_EQ(snap.cache_hits, want_hits);
  EXPECT_EQ(snap.cache_refills, want_refills);
  EXPECT_GT(want_refills, 0u);
  EXPECT_EQ(snap.bytes_cached, 0u) << "exited threads flushed their caches";
  EXPECT_EQ(snap.bytes_live, in_mail) << "blocks still in the mailboxes";
  for (Mailbox& m : mail) {
    for (void* p : m.blocks) a.free(p);
    want_frees += m.blocks.size();
  }
  snap = a.telemetry();
  EXPECT_EQ(snap.free_count, want_frees);
  EXPECT_EQ(snap.alloc_count, snap.free_count);
  EXPECT_EQ(snap.bytes_live, 0u);
}

TEST(DesignedAllocator, TelemetryKeepsTheCountsOfAnExitedThread) {
  DesignedAllocator a(alloc::drr_paper_config());
  void* handed = nullptr;
  std::thread early([&a, &handed] {
    a.free(a.malloc(300));
    a.free(a.malloc(300));  // a cache hit
    handed = a.malloc(700);
  });
  early.join();
  std::mutex mu;
  std::condition_variable cv;
  bool counted = false;
  bool release = false;
  std::thread late([&] {
    a.free(handed);
    void* p = a.malloc(50);
    std::unique_lock<std::mutex> lock(mu);
    counted = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
    lock.unlock();
    a.free(p);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return counted; });
  }
  // The early thread is gone, the late one is parked holding 50 bytes.
  TelemetrySnapshot snap = a.telemetry();
  EXPECT_EQ(snap.alloc_count, 4u);
  EXPECT_EQ(snap.free_count, 3u);
  EXPECT_EQ(snap.cache_hits, 1u);
  EXPECT_EQ(snap.bytes_live, 50u);
  EXPECT_GE(snap.peak_bytes_live, 700u);
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  late.join();
  snap = a.telemetry();
  EXPECT_EQ(snap.alloc_count, 4u);
  EXPECT_EQ(snap.free_count, 4u);
  EXPECT_EQ(snap.bytes_live, 0u);
}

TEST(DesignedAllocator, TelemetryPeakCoversTheBytesHeldAtABarrier) {
  // peak_bytes_live is sampled with several threads; at a moment when
  // every thread holds its blocks, a snapshot sees them all.
  constexpr unsigned kThreads = 4;
  constexpr std::size_t kBlocks = 40;
  DesignedAllocator a(alloc::drr_paper_config());
  std::barrier holding(kThreads + 1);
  std::barrier release(kThreads + 1);
  std::vector<std::thread> workers;
  std::size_t held = 0;
  for (unsigned tid = 0; tid < kThreads; ++tid) {
    const std::size_t size = 100 + 60 * tid;
    held += kBlocks * size;
    workers.emplace_back([&, size] {
      std::vector<void*> blocks;
      for (std::size_t i = 0; i < kBlocks; ++i) {
        blocks.push_back(a.malloc(size));
        // Churn through the cache so cache hits carry part of the rise.
        a.free(a.malloc(size));
      }
      holding.arrive_and_wait();
      release.arrive_and_wait();
      for (void* p : blocks) a.free(p);
    });
  }
  holding.arrive_and_wait();
  const TelemetrySnapshot snap = a.telemetry();
  release.arrive_and_wait();
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(snap.bytes_live, held);
  EXPECT_GE(snap.peak_bytes_live, held);
  EXPECT_GE(a.telemetry().peak_bytes_live, held) << "peak is monotone";
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
