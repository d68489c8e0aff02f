// DesignedAllocator — the deployable front over the designed policy core.
//
// Locking model (acquisition order; a later lock is never held while taking
// an earlier one):
//
//   registry mutex  — process-wide; guards every allocator's cache roster
//                     and cache ownership hand-off at thread/allocator exit
//   ThreadCache::mu — one per thread cache; the owning thread's fast path
//                     plus the teardown paths that drain someone else's
//   core_mu_        — serialises the single-threaded policy core and its
//                     arena (including the stats read of telemetry()),
//                     and guards the allocator's counters and roster
//                     reads
//
// Shard locks (pointer bookkeeping) are leaves: nothing is acquired while
// one is held.  They may be taken under ThreadCache::mu (eviction and
// flush erase the entries of the blocks they hand back).  core_mu_ and the
// shard locks are SpinParkLocks; the registry mutex and ThreadCache::mu,
// held on cold paths or by one thread at a time, stay std::mutex.
//
// Bins: a cached block of capacity c sits in bin SizeClass::index_for(c),
// the class whose range (2^(k-1), 2^k] holds c.  A request r scans bin
// index_for(r) newest first for a block with capacity >= r, then takes the
// newest block of the bin above, whose capacities all exceed 2^k >= r.  So
// a freed block serves the next request of its own size.
//
// Deferred release: a block a thread cache evicts leaves the side table at
// once but waits in the cache's pending list.  Every core_mu_ hold taken
// on a thread's behalf (a core allocation, an uncacheable free, a flush)
// first drains that thread's pending list, oldest first, under
// ThreadCache::mu then core_mu_; so does a push that fills the list to
// kPendingDrainBlocks.  A thread's releases thus reach the core in the same
// order relative to its own core calls as if each were released at
// eviction: a single-threaded run makes exactly the same core calls.
//
// Counters: each thread counts its calls in its own cache (written by that
// thread only); the cache-off path counts in core_counts_ under core_mu_,
// and an exiting thread's counts fold into core_counts_ under the registry
// mutex and core_mu_.  Every core-lock hold and every snapshot samples the
// live sum into peak_live_ (telemetry.h has the resulting semantics).
//
// Thread-cache lifetime: a cache is created by its thread on first use,
// registered with the allocator, and deleted by its thread at exit (the
// thread_local holder).  Whoever ends first cleans up — a thread exiting
// while the allocator lives flushes its blocks back into the core; an
// allocator destructed first drains every cache and orphans them
// (owner = nullptr) for their threads to delete later.

#include "dmm/runtime/designed_allocator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "dmm/alloc/size_class.h"

namespace dmm::runtime {

namespace {

/// `requested` value of a BlockInfo while the block sits in a thread cache
/// (live in the core's eyes, dead in the application's).
constexpr std::size_t kCachedSentinel = static_cast<std::size_t>(-1);

/// A thread's pending list drains once it holds this many blocks, even if
/// the thread makes no core call of its own in the meantime.
constexpr std::size_t kPendingDrainBlocks = 64;

[[noreturn]] void die(const char* what, const void* ptr) {
  std::fprintf(stderr, "DesignedAllocator: %s (ptr=%p)\n", what, ptr);
  std::abort();
}

/// The bin a size lands in: its size class, clamped to the last bin.
unsigned bin_for(std::size_t bytes) {
  return std::min(alloc::SizeClass::index_for(bytes),
                  alloc::SizeClass::kCount - 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// Thread-cache plumbing
// ---------------------------------------------------------------------------

struct DesignedAllocator::ThreadCache {
  ThreadCache() { pending.reserve(kPendingDrainBlocks); }

  std::mutex mu;
  /// Guarded by the registry mutex AND mu (writers hold both, readers
  /// hold either): which allocator drains into at thread exit.
  DesignedAllocator* owner = nullptr;
  /// bins[b] holds (ptr, capacity) with bin_for(capacity) == b, oldest
  /// first.
  std::array<std::vector<std::pair<void*, std::size_t>>,
             alloc::SizeClass::kCount>
      bins;
  std::size_t cached_bytes = 0;  ///< sum of cached capacities; under mu
  /// Evicted blocks not yet released to the core, oldest first; under mu.
  /// Cleared, never shrunk, so draining allocates nothing.
  std::vector<void*> pending;
  /// The owning thread's calls through owner; written by that thread only.
  /// On its own cache line, away from the neighbouring heap objects.
  alignas(64) ThreadCounters counts;
  /// owner->roster_epoch_ when counts' high mark last restarted; under
  /// the owner's core_mu_.
  std::uint64_t high_epoch = 0;
};

struct ThreadCacheRegistry {
  /// Process-wide teardown lock.  Leaked deliberately: threads may still
  /// run their thread_local destructors after static destruction begins.
  static std::mutex& mutex() {
    static std::mutex* mu = new std::mutex;
    return *mu;
  }

  struct TlsHolder {
    std::vector<DesignedAllocator::ThreadCache*> caches;

    ~TlsHolder() {
      const std::lock_guard<std::mutex> reg(mutex());
      for (DesignedAllocator::ThreadCache* c : caches) {
        // Thread exits first: its cached blocks go back to the core.
        if (c->owner != nullptr) c->owner->retire(c);
        // Allocator already gone (owner nulled): the entries died with
        // its arena; only the cache shell is left to delete.
        delete c;
      }
    }
  };

  static TlsHolder& tls() {
    thread_local TlsHolder holder;
    return holder;
  }
};

DesignedAllocator::ThreadCache* DesignedAllocator::this_thread_cache() {
  if (opts_.thread_cache_bytes == 0) return nullptr;
  std::vector<ThreadCache*>& shells = ThreadCacheRegistry::tls().caches;
  for (auto it = shells.begin(); it != shells.end();) {
    ThreadCache* c = *it;
    const DesignedAllocator* owner = nullptr;
    {
      const std::lock_guard<std::mutex> lock(c->mu);
      owner = c->owner;
    }
    if (owner == this) return c;
    if (owner != nullptr) {
      ++it;
      continue;
    }
    // Orphaned by a destroyed allocator, which drained it and dropped it
    // from its roster: only this thread still knows the shell.  Deleting
    // it here keeps the walk as short as the allocators still in use.
    delete c;
    it = shells.erase(it);
  }
  auto* c = new ThreadCache;
  c->owner = this;
  {
    const std::lock_guard<std::mutex> reg(ThreadCacheRegistry::mutex());
    enlist(c);
  }
  shells.push_back(c);
  return c;
}

void DesignedAllocator::enlist(ThreadCache* cache) {
  const std::lock_guard<SpinParkLock> core_lock(core_mu_);
  sample_peak();  // closes a lone thread's interval before the roster grows
  caches_.push_back(cache);
  cache->high_epoch = ++roster_epoch_;
}

void DesignedAllocator::retire(ThreadCache* cache) {
  flush_cache(*cache);
  const std::lock_guard<SpinParkLock> core_lock(core_mu_);
  sample_peak();
  core_counts_.absorb(cache->counts);
  caches_.erase(std::remove(caches_.begin(), caches_.end(), cache),
                caches_.end());
  ++roster_epoch_;
}

std::size_t DesignedAllocator::thread_cache_shells() {
  return ThreadCacheRegistry::tls().caches.size();
}

template <class Body>
decltype(auto) DesignedAllocator::with_core(ThreadCache* cache, Body&& body) {
  std::unique_lock<std::mutex> cache_lock;
  if (cache != nullptr) cache_lock = std::unique_lock<std::mutex>(cache->mu);
  const std::lock_guard<SpinParkLock> core_lock(core_mu_);
  if (cache != nullptr) core_hold(*cache);
  return body();
}

void DesignedAllocator::core_hold(ThreadCache& cache) {
  drain_pending(cache);
  sample_peak();
  if (cache.high_epoch != roster_epoch_) {
    // Others came or went since the high mark began: start a new one.
    cache.counts.restart_high();
    cache.high_epoch = roster_epoch_;
  }
}

template <class Note>
void DesignedAllocator::count(ThreadCache* cache, Note&& note) {
  if (cache != nullptr) {
    note(cache->counts);
    return;
  }
  const std::lock_guard<SpinParkLock> core_lock(core_mu_);
  note(core_counts_);
  sample_peak();
}

void DesignedAllocator::sample_peak() const {
  const std::int64_t retired = core_counts_.live();
  std::int64_t live = retired;
  for (const ThreadCache* c : caches_) live += c->counts.live();
  peak_live_ = std::max(peak_live_, live);
  if (caches_.size() == 1 && caches_[0]->high_epoch == roster_epoch_) {
    // Every call since the high mark restarted came from this thread, and
    // the retired share has not moved: its high mark is the exact peak.
    peak_live_ = std::max(peak_live_, retired + caches_[0]->counts.high());
  }
}

// ---------------------------------------------------------------------------

DesignedAllocator::DesignedAllocator(const alloc::DmmConfig& cfg,
                                     RuntimeOptions opts)
    : opts_(std::move(opts)),
      arena_(opts_.arena_capacity_bytes),
      core_(arena_, cfg, "designed-runtime", /*strict_accounting=*/false),
      cache_block_limit_(std::min(
          {core_.config().big_request_bytes,
           opts_.thread_cache_bytes,
           alloc::SizeClass::size_of(alloc::SizeClass::kCount - 1)})) {}

DesignedAllocator::~DesignedAllocator() {
  const std::lock_guard<std::mutex> reg(ThreadCacheRegistry::mutex());
  for (ThreadCache* c : caches_) {
    flush_cache(*c);
    const std::lock_guard<std::mutex> lock(c->mu);
    c->owner = nullptr;  // its thread deletes the shell at exit
  }
  const std::lock_guard<SpinParkLock> core_lock(core_mu_);
  caches_.clear();
}

DesignedAllocator::Shard& DesignedAllocator::shard_for(const void* p) const {
  // dmm-lint: allow(ptr-order): shard selection hashes the address; no ordering is derived
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  // Drop the alignment zeroes, then golden-ratio mix so neighbouring
  // blocks spread across shards.
  const std::uintptr_t h = (addr >> 3) * 0x9e3779b97f4a7c15ULL;
  return shards_[(h >> 32) & (kShardCount - 1)];
}

// ---------------------------------------------------------------------------
// malloc / free / realloc / usable_size
// ---------------------------------------------------------------------------

void* DesignedAllocator::malloc(std::size_t bytes) {
  const std::size_t request = bytes == 0 ? 1 : bytes;
  ThreadCache* cache = this_thread_cache();
  if (cache != nullptr) {
    if (void* p = cache_pop(*cache, request)) {
      Shard& sh = shard_for(p);
      {
        const std::lock_guard<SpinParkLock> lock(sh.mu);
        auto it = sh.map.find(p);
        if (it == sh.map.end() || it->second.requested != kCachedSentinel) {
          die("thread cache handed out an untracked block", p);
        }
        it->second.requested = request;
      }
      cache->counts.note_alloc(request, /*from_cache=*/true);
      return p;
    }
  }
  return slow_malloc(request, cache);
}

void* DesignedAllocator::slow_malloc(std::size_t request, ThreadCache* cache) {
  std::size_t capacity = 0;
  void* p = core_allocate(request, &capacity, cache);
  if (p == nullptr && cache != nullptr) {
    // Reclaim before any policy fires: the calling thread's own cache may
    // hold exactly the memory the core needs.
    flush_cache(*cache);
    p = core_allocate(request, &capacity, cache);
  }
  if (p == nullptr) p = handle_oom(request, &capacity, cache);
  if (p == nullptr) return nullptr;
  Shard& sh = shard_for(p);
  {
    const std::lock_guard<SpinParkLock> lock(sh.mu);
    if (!sh.map.emplace(p, BlockInfo{capacity, request}).second) {
      die("core handed out a live pointer twice", p);
    }
  }
  // The cache-off path counted inside its core-lock hold.
  if (cache != nullptr) {
    cache->counts.note_alloc(request, /*from_cache=*/false);
  }
  return p;
}

void* DesignedAllocator::core_allocate(std::size_t request,
                                       std::size_t* capacity,
                                       ThreadCache* cache) {
  return with_core(cache, [&]() -> void* {
    if (consume_injected_failure()) return nullptr;
    void* p = core_.allocate(request);
    if (p == nullptr) return nullptr;
    *capacity = core_.usable_size(p);
    if (cache == nullptr) {
      core_counts_.note_alloc(request, /*from_cache=*/false);
      sample_peak();
    }
    return p;
  });
}

void* DesignedAllocator::handle_oom(std::size_t request, std::size_t* capacity,
                                    ThreadCache* cache) {
  switch (opts_.oom_policy) {
    case OomPolicy::kDie: {
      oom_.note_died();
      // The emalloc/die_oom contract: report the failed request, stop.
      std::fprintf(stderr,
                   "DesignedAllocator: out of memory allocating %zu bytes "
                   "(arena capacity %zu)\n",
                   request, arena_.capacity());
      std::abort();
    }
    case OomPolicy::kNull:
      oom_.note_null();
      return nullptr;
    case OomPolicy::kCallback: {
      // No lock is held here: the callback may free() through this
      // allocator (release-and-retry) or call trim() itself.
      for (unsigned attempt = 1;
           opts_.oom_callback && attempt <= opts_.oom_retry_limit;
           ++attempt) {
        oom_.note_callback();
        if (!opts_.oom_callback(request, attempt)) break;
        if (void* p = core_allocate(request, capacity, cache)) {
          oom_.note_recovered();
          return p;
        }
      }
      oom_.note_null();
      return nullptr;
    }
  }
  return nullptr;
}

void DesignedAllocator::free(void* ptr) {
  if (ptr == nullptr) return;
  std::size_t capacity = 0;
  std::size_t requested = 0;
  ThreadCache* cache = this_thread_cache();
  bool to_cache = false;
  {
    Shard& sh = shard_for(ptr);
    const std::lock_guard<SpinParkLock> lock(sh.mu);
    auto it = sh.map.find(ptr);
    if (it == sh.map.end()) {
      die("free of a pointer this allocator does not own "
          "(wild or double free)",
          ptr);
    }
    if (it->second.requested == kCachedSentinel) {
      die("double free of a cached block", ptr);
    }
    capacity = it->second.capacity;
    requested = it->second.requested;
    to_cache = cache != nullptr && cacheable(capacity);
    if (to_cache) {
      it->second.requested = kCachedSentinel;
    } else {
      sh.map.erase(it);
    }
  }
  if (cache == nullptr) {
    with_core(nullptr, [&] {
      core_.deallocate(ptr);
      core_counts_.note_free(requested);
    });
    return;
  }
  cache->counts.note_free(requested);
  if (to_cache) {
    cache_push(*cache, ptr, capacity);
    return;
  }
  with_core(cache, [&] { core_.deallocate(ptr); });
}

void* DesignedAllocator::realloc(void* ptr, std::size_t bytes) {
  ThreadCache* cache = this_thread_cache();
  count(cache, [](ThreadCounters& c) { c.note_realloc(); });
  if (ptr == nullptr) return malloc(bytes);
  if (bytes == 0) {
    free(ptr);
    return nullptr;
  }
  std::size_t old_requested = 0;
  bool in_place = false;
  {
    Shard& sh = shard_for(ptr);
    const std::lock_guard<SpinParkLock> lock(sh.mu);
    auto it = sh.map.find(ptr);
    if (it == sh.map.end() || it->second.requested == kCachedSentinel) {
      die("realloc of a pointer this allocator does not own", ptr);
    }
    old_requested = it->second.requested;
    // In place when the core's grant already covers the new size.
    in_place = it->second.capacity >= bytes;
    if (in_place) it->second.requested = bytes;
  }
  if (in_place) {
    count(cache,
          [&](ThreadCounters& c) { c.note_resize(old_requested, bytes); });
    return ptr;
  }
  void* moved = malloc(bytes);
  if (moved == nullptr) return nullptr;  // old block stays intact
  std::memcpy(moved, ptr, std::min(old_requested, bytes));
  free(ptr);
  return moved;
}

std::size_t DesignedAllocator::usable_size(const void* ptr) const {
  if (ptr == nullptr) return 0;
  Shard& sh = shard_for(ptr);
  const std::lock_guard<SpinParkLock> lock(sh.mu);
  const auto it = sh.map.find(ptr);
  if (it == sh.map.end() || it->second.requested == kCachedSentinel) {
    return 0;
  }
  return it->second.capacity;
}

// ---------------------------------------------------------------------------
// Telemetry, trim, fault injection
// ---------------------------------------------------------------------------

TelemetrySnapshot DesignedAllocator::telemetry() const {
  TelemetrySnapshot s;
  oom_.add_to(s);
  const std::lock_guard<SpinParkLock> lock(core_mu_);
  sample_peak();
  core_counts_.add_to(s);
  for (const ThreadCache* c : caches_) c->counts.add_to(s);
  // Mid-traffic, a free counted before the alloc it undoes can show.
  if (static_cast<std::int64_t>(s.bytes_live) < 0) s.bytes_live = 0;
  s.peak_bytes_live = static_cast<std::uint64_t>(peak_live_);
  s.arena = arena_.stats();
  return s;
}

void DesignedAllocator::trim() {
  if (ThreadCache* cache = this_thread_cache()) flush_cache(*cache);
}

void DesignedAllocator::inject_arena_exhaustion(std::uint64_t failures) {
  injected_failures_.store(failures, std::memory_order_relaxed);
}

bool DesignedAllocator::consume_injected_failure() {
  std::uint64_t n = injected_failures_.load(std::memory_order_relaxed);
  while (n > 0 && !injected_failures_.compare_exchange_weak(
                      n, n - 1, std::memory_order_relaxed)) {
  }
  return n > 0;
}

// ---------------------------------------------------------------------------
// Thread-cache mechanics
// ---------------------------------------------------------------------------

bool DesignedAllocator::cacheable(std::size_t capacity) const {
  return capacity >= alloc::SizeClass::size_of(0) &&
         capacity < cache_block_limit_;
}

void DesignedAllocator::cache_push(ThreadCache& cache, void* ptr,
                                   std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(cache.mu);
  auto& bin = cache.bins[bin_for(capacity)];
  bin.emplace_back(ptr, capacity);
  cache.cached_bytes += capacity;
  // Per-bin entry cap: evict the oldest of this bin beyond it.
  if (bin.size() > opts_.thread_cache_bin_entries) {
    const std::size_t drop = bin.size() - opts_.thread_cache_bin_entries;
    for (std::size_t i = 0; i < drop; ++i) {
      evict(cache, bin[i].first, bin[i].second);
    }
    bin.erase(bin.begin(), bin.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  // Byte budget: shed the largest cached blocks first.
  for (std::size_t b = cache.bins.size();
       b-- > 0 && cache.cached_bytes > opts_.thread_cache_bytes;) {
    auto& shed = cache.bins[b];
    while (!shed.empty() && cache.cached_bytes > opts_.thread_cache_bytes) {
      evict(cache, shed.front().first, shed.front().second);
      shed.erase(shed.begin());
    }
  }
  if (cache.pending.size() >= kPendingDrainBlocks) {
    const std::lock_guard<SpinParkLock> core_lock(core_mu_);
    core_hold(cache);
  }
}

void* DesignedAllocator::cache_pop(ThreadCache& cache, std::size_t request) {
  if (request >= cache_block_limit_) return nullptr;
  const unsigned b = bin_for(request);
  const std::lock_guard<std::mutex> lock(cache.mu);
  const auto take = [&cache](auto& bin, std::size_t i) {
    void* p = bin[i].first;
    cache.cached_bytes -= bin[i].second;
    bin.erase(bin.begin() + static_cast<std::ptrdiff_t>(i));
    return p;
  };
  // Own class, newest first: the first block whose capacity fits.
  auto& own = cache.bins[b];
  const std::size_t stop =
      own.size() - std::min(own.size(), opts_.thread_cache_bin_entries);
  for (std::size_t i = own.size(); i-- > stop;) {
    if (own[i].second >= request) return take(own, i);
  }
  // The class above: every capacity there exceeds this class's size.
  if (b + 1 < cache.bins.size() && !cache.bins[b + 1].empty()) {
    auto& above = cache.bins[b + 1];
    return take(above, above.size() - 1);
  }
  return nullptr;
}

void DesignedAllocator::evict(ThreadCache& cache, void* ptr,
                              std::size_t capacity) {
  {
    Shard& sh = shard_for(ptr);
    const std::lock_guard<SpinParkLock> lock(sh.mu);
    sh.map.erase(ptr);
  }
  cache.cached_bytes -= capacity;
  cache.pending.push_back(ptr);
}

void DesignedAllocator::drain_pending(ThreadCache& cache) {
  for (void* p : cache.pending) core_.deallocate(p);
  cache.pending.clear();
}

void DesignedAllocator::flush_cache(ThreadCache& cache) {
  const std::lock_guard<std::mutex> lock(cache.mu);
  for (auto& bin : cache.bins) {
    for (const auto& [p, capacity] : bin) evict(cache, p, capacity);
    bin.clear();
  }
  if (cache.pending.empty()) return;
  const std::lock_guard<SpinParkLock> core_lock(core_mu_);
  core_hold(cache);
}

}  // namespace dmm::runtime
