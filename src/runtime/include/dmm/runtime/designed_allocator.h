#ifndef DMM_RUNTIME_DESIGNED_ALLOCATOR_H
#define DMM_RUNTIME_DESIGNED_ALLOCATOR_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/alloc/custom_manager.h"
#include "dmm/runtime/oom.h"
#include "dmm/runtime/spin_park_lock.h"
#include "dmm/runtime/telemetry.h"
#include "dmm/sysmem/system_arena.h"

namespace dmm::runtime {

// ---------------------------------------------------------------------------
// The deployable front over the designed policy core.
//
// The methodology's product (alloc::CustomManager — see alloc/policy_core.h
// for the split) is a deterministic, single-threaded policy core: exactly
// what replay scoring needs, and exactly NOT what live traffic needs.
// DesignedAllocator wraps one core instance with the three things
// deployment adds and design must never see:
//
//   * concurrency  — the core runs under one lock; per-thread caches of
//     freed blocks absorb the fast path so the designed pool layout stays
//     exactly as the offline search scored it while concurrent alloc/free
//     is safe.  A freed block is filed by the size class that holds its
//     capacity, and a request takes the newest block of its own class
//     that fits it, else the newest of the class above (whose blocks all
//     fit), so a block comes back for requests of its own size and a hit
//     never widens a block beyond what the core already granted.  Caches
//     are bounded (bytes + per-bin entries).  While several threads share
//     the front, a bin of a class below 512 B may hold 16 KB of blocks,
//     and a miss's core-lock hold also grants up to 1 KB more blocks of
//     the missed class into the thread's cache, so a thread's small
//     working set stays out of the core lock every thread queues on.
//     Blocks a cache evicts wait in its thread's pending list and reach
//     the core inside that thread's next core-lock hold, in eviction
//     order, so one lock hold carries many releases.
//   * failure policy — the core reports exhaustion as nullptr; the front
//     turns that into the configured OOM contract (oom.h) after first
//     reclaiming the calling thread's cache back into the core.
//   * telemetry   — per-thread counters kept in each thread's cache and
//     summed on demand (telemetry.h), snapshot-readable from any thread
//     mid-traffic.

// Determinism escape hatch: with RuntimeOptions::thread_cache_bytes == 0
// every call forwards straight to the core under the lock, so a
// single-threaded replay through the front touches the arena in exactly
// the order the simulator did — test_runtime_allocator and perfbench's
// deploy-drr use this to check the deployed peak footprint against the
// designed bound to the byte.
// ---------------------------------------------------------------------------

struct RuntimeOptions {
  /// Arena budget in bytes (0 = unlimited), like the embedded device's
  /// physical memory.  The OOM policy decides what exhaustion means.
  std::size_t arena_capacity_bytes = 0;

  OomPolicy oom_policy = OomPolicy::kNull;
  /// Release-and-retry hook for OomPolicy::kCallback (ignored otherwise).
  OomCallback oom_callback;
  /// Max callback invocations per failing allocation before giving up.
  unsigned oom_retry_limit = 8;

  /// Per-thread cache budget in bytes; 0 disables caching entirely
  /// (every call serialises on the core — the deterministic replay mode).
  std::size_t thread_cache_bytes = 256 * 1024;
  /// Cap on entries per size-class bin of one thread cache while one
  /// thread uses the allocator; while several do, the floor of each bin's
  /// cap, which rises to 16 KB of the bin's class size (2048 entries of
  /// 8 B down to 64 of 256 B).
  std::size_t thread_cache_bin_entries = 32;
};

class DesignedAllocator {
 public:
  /// @p cfg must be a deployable vector (no hard rule violations — the
  /// core aborts otherwise, same contract as CustomManager).  Artifacts
  /// loaded via load_config_artifact() are pre-validated.
  explicit DesignedAllocator(const alloc::DmmConfig& cfg,
                             RuntimeOptions opts = {});
  DesignedAllocator(const DesignedAllocator&) = delete;
  DesignedAllocator& operator=(const DesignedAllocator&) = delete;

  /// Flushes every thread's cache back into the core.  Threads must be
  /// done with this allocator (quiescent or joined) before destruction.
  ~DesignedAllocator();

  /// malloc contract: never nullptr for a satisfiable request; on
  /// exhaustion the configured OOM policy decides (die / nullptr /
  /// callback-retry).  A zero-byte request allocates one byte.
  [[nodiscard]] void* malloc(std::size_t bytes);

  /// free contract: nullptr is a no-op; a pointer this allocator does not
  /// own, or a double free, aborts (memory-corruption tripwire, same
  /// stance as the arena).  Any thread may free any pointer.
  void free(void* ptr);

  /// realloc contract: nullptr -> malloc, size 0 -> free + nullptr,
  /// shrink/grow within the block's capacity is in place, otherwise
  /// allocate-copy-free.  On allocation failure the old block is intact
  /// and nullptr is returned (kNull/callback-exhausted policies).
  [[nodiscard]] void* realloc(void* ptr, std::size_t bytes);

  /// Capacity of a live block (>= the requested size); 0 for pointers this
  /// allocator does not currently own.
  [[nodiscard]] std::size_t usable_size(const void* ptr) const;

  /// Counter snapshot plus the designed arena's accounting; callable from
  /// any thread while traffic is in flight (telemetry.h says which
  /// figures are exact when).
  [[nodiscard]] TelemetrySnapshot telemetry() const;

  /// Returns every block cached by the *calling* thread to the core
  /// (what an OOM callback typically wants to do first).
  void trim();

  /// Fault-injection seam (tests): the next @p failures core allocations
  /// fail as if the arena were exhausted, driving the OOM path without
  /// needing a full arena.
  void inject_arena_exhaustion(std::uint64_t failures);

  /// Inspection seam (tests): thread-cache shells the calling thread holds
  /// across every allocator it has used, orphans of destroyed ones
  /// included.
  [[nodiscard]] static std::size_t thread_cache_shells();

  [[nodiscard]] const alloc::DmmConfig& config() const {
    return core_.config();
  }

 private:
  struct ThreadCache;  // defined in designed_allocator.cpp
  struct Refill;       // ditto
  friend struct ThreadCacheRegistry;

  /// The block-table word for @p p (designed_allocator.cpp has its
  /// states); a word that reads 0 off the slab or off the alignment.
  [[nodiscard]] std::atomic_ref<std::uint64_t> entry_of(const void* p) const;
  [[nodiscard]] ThreadCache* this_thread_cache();

  /// Runs @p body under core_mu_ on behalf of the calling thread, after
  /// core_hold() for @p cache (if any).
  template <class Body>
  decltype(auto) with_core(ThreadCache* cache, Body&& body);
  /// What every core-lock hold taken for @p cache does first: drains its
  /// pending evictions and samples the live sum.  Caller holds core_mu_.
  void core_hold(ThreadCache& cache);
  /// Applies @p note to the calling thread's counters, or to the
  /// allocator's under core_mu_ when caches are off.
  template <class Note>
  void count(ThreadCache* cache, Note&& note);
  /// Raises peak_live_ to the live sum of every counter, or, while one
  /// thread has used the allocator alone since its high mark restarted,
  /// to that thread's high mark.  Caller holds core_mu_.
  void sample_peak() const;
  /// Registers @p cache with this allocator (caller holds the registry
  /// mutex).
  void enlist(ThreadCache* cache);
  /// A thread exits while this allocator lives: flushes its cache, folds
  /// its counters into retired ones and drops it from the roster (caller
  /// holds the registry mutex).
  void retire(ThreadCache* cache);

  [[nodiscard]] void* slow_malloc(std::size_t request, ThreadCache* cache);
  /// One core allocation under core_mu_; with @p refill, a shared cache's
  /// hold also grants blocks ahead into it (grant_ahead()).
  [[nodiscard]] void* core_allocate(std::size_t request, std::size_t* capacity,
                                    ThreadCache* cache,
                                    Refill* refill = nullptr);
  /// Grants @p cache up to kRefillBytes more blocks of @p request's size
  /// after a miss the core served with @p capacity, within the bin's
  /// shared cap and the byte budget.  Caller holds core_mu_.
  void grant_ahead(const ThreadCache& cache, std::size_t request,
                   std::size_t capacity, Refill& refill);
  /// Enters @p refill's blocks in the block table as cached and pushes
  /// them into @p cache.  No lock held.
  void file_refill(ThreadCache& cache, const Refill& refill);
  [[nodiscard]] void* handle_oom(std::size_t request, std::size_t* capacity,
                                 ThreadCache* cache);
  [[nodiscard]] bool consume_injected_failure();

  [[nodiscard]] bool cacheable(std::size_t capacity) const;
  void cache_push(ThreadCache& cache, void* ptr, std::size_t capacity);
  [[nodiscard]] void* cache_pop(ThreadCache& cache, std::size_t request);
  /// Moves one cached block to @p cache's pending list and clears its
  /// block-table word.
  void evict(ThreadCache& cache, void* ptr, std::size_t capacity);
  /// Releases @p cache's pending list to the core, oldest first.  Caller
  /// holds core_mu_.
  void drain_pending(ThreadCache& cache);
  /// Empties @p cache into the core: pending list first, then every bin.
  void flush_cache(ThreadCache& cache);

  RuntimeOptions opts_;
  sysmem::SystemArena arena_;
  /// Serialises every core/arena touch; the arena's stats are read under
  /// it too (telemetry()).
  mutable SpinParkLock core_mu_;
  alloc::CustomManager core_;
  /// Blocks at or above the designed big-request threshold bypass the
  /// thread caches: the core routes them to dedicated chunks that should
  /// flow back to the arena, not sit in a cache.
  std::size_t cache_block_limit_;
  /// The arena's slab (empty, failing every malloc, without a table), and
  /// the block table: one word per 8 bytes of it.
  std::span<const std::byte> slab_;
  sysmem::Reservation table_;
  /// Counters of the cache-off path plus those folded in from exited
  /// threads; under core_mu_.
  ThreadCounters core_counts_;
  /// Highest live sum sampled (see telemetry.h); under core_mu_.
  mutable std::int64_t peak_live_ = 0;
  /// Bumped on every change of caches_; under core_mu_.
  std::uint64_t roster_epoch_ = 0;
  OomCounters oom_;
  /// This allocator's live thread caches.  Written under both the
  /// process-wide cache registry mutex (see designed_allocator.cpp) and
  /// core_mu_, so either lock suffices to read it.
  std::vector<ThreadCache*> caches_;
  std::atomic<std::uint64_t> injected_failures_{0};
};

}  // namespace dmm::runtime

#endif  // DMM_RUNTIME_DESIGNED_ALLOCATOR_H
