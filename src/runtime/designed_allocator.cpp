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
//                     arena (including the stats read of telemetry())
//
// Shard mutexes (pointer bookkeeping) are strict leaves: taken with no
// other lock held and released before acquiring anything.
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
#include <utility>

#include "dmm/alloc/size_class.h"

namespace dmm::runtime {

namespace {

/// `requested` value of a BlockInfo while the block sits in a thread cache
/// (live in the core's eyes, dead in the application's).
constexpr std::size_t kCachedSentinel = static_cast<std::size_t>(-1);

[[noreturn]] void die(const char* what, const void* ptr) {
  std::fprintf(stderr, "DesignedAllocator: %s (ptr=%p)\n", what, ptr);
  std::abort();
}

/// Largest size-class index whose class size the capacity covers: every
/// entry filed in bin b can serve any request of class b (capacity >=
/// size_of(b) >= request).  Requires capacity >= size_of(0).
unsigned bin_for_capacity(std::size_t capacity) {
  unsigned idx = alloc::SizeClass::index_for(capacity);
  if (alloc::SizeClass::size_of(idx) > capacity) --idx;
  return idx;
}

}  // namespace

// ---------------------------------------------------------------------------
// Thread-cache plumbing
// ---------------------------------------------------------------------------

struct DesignedAllocator::ThreadCache {
  std::mutex mu;
  /// Guarded by the registry mutex AND mu (writers hold both, readers
  /// hold either): which allocator drains into at thread exit.
  DesignedAllocator* owner = nullptr;
  /// bins[b] holds (ptr, capacity) with capacity >= SizeClass::size_of(b).
  std::array<std::vector<std::pair<void*, std::size_t>>,
             alloc::SizeClass::kCount>
      bins;
  std::size_t cached_bytes = 0;  ///< sum of cached capacities; under mu
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
        DesignedAllocator* owner = c->owner;
        if (owner != nullptr) {
          // Thread exits first: its cached blocks go back to the core.
          owner->flush_cache(*c);
          auto& roster = owner->caches_;
          roster.erase(std::remove(roster.begin(), roster.end(), c),
                       roster.end());
        }
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
  ThreadCacheRegistry::TlsHolder& holder = ThreadCacheRegistry::tls();
  for (ThreadCache* c : holder.caches) {
    const std::lock_guard<std::mutex> lock(c->mu);
    if (c->owner == this) return c;
  }
  auto* c = new ThreadCache;
  c->owner = this;
  {
    const std::lock_guard<std::mutex> reg(ThreadCacheRegistry::mutex());
    caches_.push_back(c);
  }
  holder.caches.push_back(c);
  return c;
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
        const std::lock_guard<std::mutex> lock(sh.mu);
        auto it = sh.map.find(p);
        if (it == sh.map.end() || it->second.requested != kCachedSentinel) {
          die("thread cache handed out an untracked block", p);
        }
        it->second.requested = request;
      }
      telemetry_.note_alloc(request, /*from_cache=*/true);
      return p;
    }
  }
  return slow_malloc(request, cache);
}

void* DesignedAllocator::slow_malloc(std::size_t request, ThreadCache* cache) {
  std::size_t capacity = 0;
  void* p = core_allocate(request, &capacity);
  if (p == nullptr && cache != nullptr) {
    // Reclaim before any policy fires: the calling thread's own cache may
    // hold exactly the memory the core needs.
    flush_cache(*cache);
    p = core_allocate(request, &capacity);
  }
  if (p == nullptr) p = handle_oom(request, &capacity);
  if (p == nullptr) return nullptr;
  Shard& sh = shard_for(p);
  {
    const std::lock_guard<std::mutex> lock(sh.mu);
    if (!sh.map.emplace(p, BlockInfo{capacity, request}).second) {
      die("core handed out a live pointer twice", p);
    }
  }
  telemetry_.note_alloc(request, /*from_cache=*/false);
  return p;
}

void* DesignedAllocator::core_allocate(std::size_t request,
                                       std::size_t* capacity) {
  const std::lock_guard<std::mutex> lock(core_mu_);
  if (consume_injected_failure()) return nullptr;
  void* p = core_.allocate(request);
  if (p != nullptr) *capacity = core_.usable_size(p);
  return p;
}

void* DesignedAllocator::handle_oom(std::size_t request,
                                    std::size_t* capacity) {
  switch (opts_.oom_policy) {
    case OomPolicy::kDie: {
      telemetry_.note_oom_died();
      // The emalloc/die_oom contract: report the failed request, stop.
      std::fprintf(stderr,
                   "DesignedAllocator: out of memory allocating %zu bytes "
                   "(arena capacity %zu)\n",
                   request, arena_.capacity());
      std::abort();
    }
    case OomPolicy::kNull:
      telemetry_.note_oom_null();
      return nullptr;
    case OomPolicy::kCallback: {
      // No lock is held here: the callback may free() through this
      // allocator (release-and-retry) or call trim() itself.
      for (unsigned attempt = 1;
           opts_.oom_callback && attempt <= opts_.oom_retry_limit;
           ++attempt) {
        telemetry_.note_oom_callback();
        if (!opts_.oom_callback(request, attempt)) break;
        if (void* p = core_allocate(request, capacity)) {
          telemetry_.note_oom_recovered();
          return p;
        }
      }
      telemetry_.note_oom_null();
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
    const std::lock_guard<std::mutex> lock(sh.mu);
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
  telemetry_.note_free(requested);
  if (to_cache) {
    cache_push(*cache, ptr, capacity);
    return;
  }
  const std::lock_guard<std::mutex> lock(core_mu_);
  core_.deallocate(ptr);
}

void* DesignedAllocator::realloc(void* ptr, std::size_t bytes) {
  telemetry_.note_realloc();
  if (ptr == nullptr) return malloc(bytes);
  if (bytes == 0) {
    free(ptr);
    return nullptr;
  }
  std::size_t old_requested = 0;
  {
    Shard& sh = shard_for(ptr);
    const std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.map.find(ptr);
    if (it == sh.map.end() || it->second.requested == kCachedSentinel) {
      die("realloc of a pointer this allocator does not own", ptr);
    }
    if (it->second.capacity >= bytes) {
      // In place: the core's grant already covers the new size.
      old_requested = it->second.requested;
      it->second.requested = bytes;
      telemetry_.note_resize(old_requested, bytes);
      return ptr;
    }
    old_requested = it->second.requested;
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
  const std::lock_guard<std::mutex> lock(sh.mu);
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
  TelemetrySnapshot s = telemetry_.snapshot();
  const std::lock_guard<std::mutex> lock(core_mu_);
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
  std::vector<void*> evicted;
  {
    const std::lock_guard<std::mutex> lock(cache.mu);
    auto& bin = cache.bins[bin_for_capacity(capacity)];
    bin.emplace_back(ptr, capacity);
    cache.cached_bytes += capacity;
    // Per-bin entry cap: evict the oldest of this bin beyond it.
    if (bin.size() > opts_.thread_cache_bin_entries) {
      const std::size_t drop = bin.size() - opts_.thread_cache_bin_entries;
      for (std::size_t i = 0; i < drop; ++i) {
        evicted.push_back(bin[i].first);
        cache.cached_bytes -= bin[i].second;
      }
      bin.erase(bin.begin(), bin.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    // Byte budget: shed the largest cached blocks first.
    for (std::size_t b = cache.bins.size();
         b-- > 0 && cache.cached_bytes > opts_.thread_cache_bytes;) {
      auto& shed = cache.bins[b];
      while (!shed.empty() &&
             cache.cached_bytes > opts_.thread_cache_bytes) {
        evicted.push_back(shed.front().first);
        cache.cached_bytes -= shed.front().second;
        shed.erase(shed.begin());
      }
    }
  }
  if (evicted.empty()) return;
  for (void* p : evicted) {
    Shard& sh = shard_for(p);
    const std::lock_guard<std::mutex> lock(sh.mu);
    sh.map.erase(p);
  }
  release_to_core(evicted);
}

void* DesignedAllocator::cache_pop(ThreadCache& cache, std::size_t request) {
  if (request >= cache_block_limit_) return nullptr;
  const unsigned bin_idx = alloc::SizeClass::index_for(request);
  if (bin_idx >= cache.bins.size()) return nullptr;
  const std::lock_guard<std::mutex> lock(cache.mu);
  auto& bin = cache.bins[bin_idx];
  if (bin.empty()) return nullptr;
  const auto [p, cap] = bin.back();
  bin.pop_back();
  cache.cached_bytes -= cap;
  return p;
}

void DesignedAllocator::flush_cache(ThreadCache& cache) {
  std::vector<void*> drained;
  {
    const std::lock_guard<std::mutex> lock(cache.mu);
    for (auto& bin : cache.bins) {
      for (const auto& entry : bin) drained.push_back(entry.first);
      bin.clear();
    }
    cache.cached_bytes = 0;
  }
  for (void* p : drained) {
    Shard& sh = shard_for(p);
    const std::lock_guard<std::mutex> lock(sh.mu);
    sh.map.erase(p);
  }
  release_to_core(drained);
}

void DesignedAllocator::release_to_core(const std::vector<void*>& ptrs) {
  if (ptrs.empty()) return;
  const std::lock_guard<std::mutex> lock(core_mu_);
  for (void* p : ptrs) core_.deallocate(p);
}

}  // namespace dmm::runtime
