#ifndef DMM_RUNTIME_TELEMETRY_H
#define DMM_RUNTIME_TELEMETRY_H

#include <atomic>
#include <cstdint>

#include "dmm/sysmem/arena_stats.h"

namespace dmm::runtime {

// ---------------------------------------------------------------------------
// Always-on telemetry of the deployable runtime front.
//
// The per-call counters live with their writer, never on a shared cache
// line: each thread cache carries the counts of its own thread's calls
// (ThreadCounters, written by that thread alone), the allocator carries
// those of the cache-off path (written under its core lock) and the
// folded-in counts of threads that have exited.  A snapshot sums them.
// Only the OOM counters, on the cold path, stay shared relaxed atomics.
//
// Snapshot semantics (DesignedAllocator::telemetry()):
//   * alloc_count, free_count, realloc_count, cache_hits, cache_refills,
//     bytes_live and bytes_cached are exact once the threads using the
//     allocator are quiescent (joined, or parked after their last call).
//     Mid-traffic each is a sum of per-thread counters read one after
//     another, so it may trail or lead the calls racing the read.
//   * peak_bytes_live is exact while one thread uses the allocator.  With
//     several threads it is the highest live sum the front has sampled:
//     the sum is taken on every core-lock hold and at every snapshot, so a
//     rise and fall between two samples is missed and the figure is a
//     lower bound of the true multi-thread peak.  (A sample is itself a
//     sequence of relaxed reads, so threads freeing each other's blocks
//     during one can skew it by the bytes those calls move.)
//
// The byte counters account *requested* bytes (application demand), the
// same quantity the simulator's peak_live_bytes tracks; the arena view in
// TelemetrySnapshot carries the footprint side (bytes held from the OS),
// so a snapshot exposes both halves of the paper's Sec. 4.1 split.
// ---------------------------------------------------------------------------

/// Every counter plus the arena's accounting, readable without stopping
/// traffic (see the snapshot semantics above).
struct TelemetrySnapshot {
  std::uint64_t alloc_count = 0;    ///< successful malloc/realloc-grow calls
  std::uint64_t free_count = 0;     ///< free calls with a live pointer
  std::uint64_t realloc_count = 0;  ///< realloc calls (any outcome)
  std::uint64_t cache_hits = 0;     ///< allocs served from a thread cache
  /// Blocks granted ahead of a request: a shared front's cache miss takes
  /// up to 1 KB more blocks of its class into the thread's cache in the
  /// same core-lock hold.  They count as allocations only when a request
  /// takes one (a cache hit).
  std::uint64_t cache_refills = 0;
  /// Capacity currently parked in thread caches (blocks waiting in a
  /// pending list for the core are not counted).
  std::uint64_t bytes_cached = 0;
  std::uint64_t bytes_live = 0;     ///< requested bytes currently live
  std::uint64_t peak_bytes_live = 0;  ///< high-water mark of bytes_live

  // OOM events, split per policy outcome: every exhausted allocation
  // lands in exactly one of died/returned_null/callback_recovered/
  // callback_failed.
  std::uint64_t oom_died = 0;           ///< kDie fired (counted pre-abort)
  std::uint64_t oom_returned_null = 0;  ///< kNull, or kCallback gave up
  std::uint64_t oom_callback_invocations = 0;  ///< callback calls, total
  std::uint64_t oom_callback_recovered = 0;  ///< retries that then succeeded

  /// The designed arena's accounting at snapshot time (footprint side).
  sysmem::ArenaStats arena;
};

/// Per-call counters with one writer at a time: a thread cache's (its
/// owning thread) or the allocator's (whoever holds the core lock).  A
/// writer updates with a relaxed load and store, no read-modify-write;
/// any thread may read them relaxed.
class ThreadCounters {
 public:
  void note_alloc(std::uint64_t requested, bool from_cache) {
    bump(alloc_count_);
    if (from_cache) bump(cache_hits_);
    add_live(static_cast<std::int64_t>(requested));
  }

  void note_free(std::uint64_t requested) {
    bump(free_count_);
    add_live(-static_cast<std::int64_t>(requested));
  }

  void note_realloc() { bump(realloc_count_); }

  /// @p blocks were granted ahead of a request into this writer's cache.
  void note_refill(std::uint64_t blocks) { bump(refills_, blocks); }

  /// The writer's cache took in (positive) or let go of @p delta bytes of
  /// capacity.
  void add_cached(std::int64_t delta) {
    cached_.store(cached() + delta, std::memory_order_relaxed);
  }

  /// Capacity the writer's cache holds now.
  [[nodiscard]] std::int64_t cached() const {
    return cached_.load(std::memory_order_relaxed);
  }

  /// In-place realloc: the pointer stays, only the requested size moves.
  void note_resize(std::uint64_t old_requested, std::uint64_t new_requested) {
    add_live(static_cast<std::int64_t>(new_requested) -
             static_cast<std::int64_t>(old_requested));
  }

  /// Net requested bytes this writer allocated minus those it freed;
  /// negative when it freed blocks another thread allocated.
  [[nodiscard]] std::int64_t live() const {
    return live_.load(std::memory_order_relaxed);
  }

  /// Highest live() since the last restart_high().
  [[nodiscard]] std::int64_t high() const {
    return high_.load(std::memory_order_relaxed);
  }

  /// Starts a new high-water interval at the current live().  Writer only.
  void restart_high() { high_.store(live(), std::memory_order_relaxed); }

  /// Adds this writer's counts into @p s (bytes_live as a signed delta,
  /// wrapping; the caller clamps the total).
  void add_to(TelemetrySnapshot& s) const {
    s.alloc_count += alloc_count_.load(std::memory_order_relaxed);
    s.free_count += free_count_.load(std::memory_order_relaxed);
    s.realloc_count += realloc_count_.load(std::memory_order_relaxed);
    s.cache_hits += cache_hits_.load(std::memory_order_relaxed);
    s.cache_refills += refills_.load(std::memory_order_relaxed);
    s.bytes_live += static_cast<std::uint64_t>(live());
    s.bytes_cached += static_cast<std::uint64_t>(cached());
  }

  /// Folds @p other's counts into these (an exiting thread's into the
  /// allocator's).  Writer only; @p other must be quiescent.
  void absorb(const ThreadCounters& other) {
    bump(alloc_count_, other.alloc_count_.load(std::memory_order_relaxed));
    bump(free_count_, other.free_count_.load(std::memory_order_relaxed));
    bump(realloc_count_,
         other.realloc_count_.load(std::memory_order_relaxed));
    bump(cache_hits_, other.cache_hits_.load(std::memory_order_relaxed));
    bump(refills_, other.refills_.load(std::memory_order_relaxed));
    add_live(other.live());
    add_cached(other.cached());
  }

 private:
  static void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
    c.store(c.load(std::memory_order_relaxed) + by,
            std::memory_order_relaxed);
  }

  void add_live(std::int64_t delta) {
    const std::int64_t now = live() + delta;
    live_.store(now, std::memory_order_relaxed);
    if (now > high()) high_.store(now, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> alloc_count_{0};
  std::atomic<std::uint64_t> free_count_{0};
  std::atomic<std::uint64_t> realloc_count_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> refills_{0};
  std::atomic<std::int64_t> live_{0};
  std::atomic<std::int64_t> cached_{0};
  std::atomic<std::int64_t> high_{0};
};

/// The OOM counters: shared relaxed atomics, touched on the exhaustion
/// path only.
class OomCounters {
 public:
  void note_died() { oom_died_.fetch_add(1, std::memory_order_relaxed); }
  void note_null() {
    oom_returned_null_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_callback() {
    oom_callback_invocations_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_recovered() {
    oom_callback_recovered_.fetch_add(1, std::memory_order_relaxed);
  }

  void add_to(TelemetrySnapshot& s) const {
    s.oom_died += oom_died_.load(std::memory_order_relaxed);
    s.oom_returned_null +=
        oom_returned_null_.load(std::memory_order_relaxed);
    s.oom_callback_invocations +=
        oom_callback_invocations_.load(std::memory_order_relaxed);
    s.oom_callback_recovered +=
        oom_callback_recovered_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> oom_died_{0};
  std::atomic<std::uint64_t> oom_returned_null_{0};
  std::atomic<std::uint64_t> oom_callback_invocations_{0};
  std::atomic<std::uint64_t> oom_callback_recovered_{0};
};

}  // namespace dmm::runtime

#endif  // DMM_RUNTIME_TELEMETRY_H
