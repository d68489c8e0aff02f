// DesignedAllocator — the deployable front over the designed policy core.
//
// Locking model (acquisition order; core_mu_ is never held while taking
// the registry mutex):
//
//   registry mutex  — process-wide; guards every allocator's cache roster
//                     and cache ownership hand-off at thread/allocator exit
//   core_mu_        — serialises the single-threaded policy core and its
//                     arena (including the stats read of telemetry()),
//                     and guards the allocator's counters and roster
//                     reads
//
// A thread cache takes no lock: while the allocator lives only its owning
// thread touches its bins and pending list.  Both teardown paths (thread
// exit, allocator destruction) run under the registry mutex, and the one
// that drains other threads' caches, the destructor, runs only once those
// threads are done with the allocator (its contract).  core_mu_ is a
// SpinParkLock; the registry mutex, held on cold paths, stays std::mutex.
// Looking up a thread's cache (ThreadCache::owner) or a pointer's block
// takes no lock.
//
// Block table: one word per 8-byte granule of the slab, capacity << 32 |
// requested.  0: no block starts here; requested 0: in a thread cache.  The
// thread a block is granted to sets its word after its core_mu_ hold; the
// word is cleared before the block goes back to the core or to a pending
// list.  free flips a word with one CAS, so of two racing frees one dies.
// Reserved MAP_NORESERVE, it commits at most the arena's high-water bytes.
//
// Deferred release: a block a thread cache evicts leaves the block table
// at once but waits in the cache's pending list.  Every core_mu_ hold taken
// on a thread's behalf (a core allocation, an uncacheable free, a flush)
// first drains that thread's pending list, oldest first; so does a push
// that fills the list to kPendingDrainBlocks.  A thread's releases thus
// reach the core in the same order relative to its own core calls as if
// each were released at eviction: a single-threaded run makes exactly the
// same core calls.
//
// Batched refill: while the front is shared, the core-lock hold of a cache
// miss also grants up to kRefillBytes more blocks of the missed size.  They
// are entered in the block table as cached and filed in the bins after the
// hold, so the lock covers core calls only.  A one-thread front never
// refills, and so makes the same core calls as with plain caches.
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
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <utility>

#include "dmm/alloc/size_class.h"

namespace dmm::runtime {

namespace {

// Table words are plain zero-filled memory accessed through atomic_ref.  A
// pointer off the table reads no_block, 0; only granted blocks are written.
using TableWord = std::atomic_ref<std::uint64_t>;
static_assert(TableWord::is_always_lock_free);
alignas(TableWord::required_alignment) std::uint64_t no_block = 0;

constexpr std::uint64_t table_word(std::size_t capacity,
                                   std::size_t requested) {
  return static_cast<std::uint64_t>(capacity) << 32 | requested;
}
constexpr std::size_t capacity_of(std::uint64_t word) {
  return word >> 32;
}
constexpr std::size_t requested_of(std::uint64_t word) {
  return word & 0xffffffffU;
}

/// A thread's pending list drains once it holds this many blocks, even if
/// the thread makes no core call of its own in the meantime.
constexpr std::size_t kPendingDrainBlocks = 64;

/// While several threads share a front, a bin's entry cap grows to this
/// many bytes of its class where that is deeper (below 512 B at the
/// default 32 entries): a thread's working set of small blocks then stays
/// in its cache instead of swinging through the core lock every thread
/// queues on.
constexpr std::size_t kSharedBinBytes = 16 * 1024;

/// A shared front's cache miss takes up to this many bytes of further
/// blocks of its size in the same core-lock hold.
constexpr std::size_t kRefillBytes = 1024;
/// Most blocks one refill can grant: kRefillBytes of the smallest class.
constexpr std::size_t kRefillMaxBlocks =
    kRefillBytes / alloc::SizeClass::size_of(0);

[[noreturn]] void die(const char* what, const void* ptr) {
  std::fprintf(stderr, "DesignedAllocator: %s (ptr=%p)\n", what, ptr);
  std::abort();
}

/// The bin a size lands in: its size class, clamped to the last bin.
unsigned bin_for(std::size_t bytes) {
  return std::min(alloc::SizeClass::index_for(bytes),
                  alloc::SizeClass::kCount - 1);
}

/// Entry cap of bin @p cls: the option's cap for a front used by one
/// thread, at least kSharedBinBytes of the class for a shared one.
std::size_t bin_entries(const RuntimeOptions& opts, unsigned cls,
                        bool shared) {
  const std::size_t entries = opts.thread_cache_bin_entries;
  if (!shared) return entries;
  return std::max(entries, kSharedBinBytes / alloc::SizeClass::size_of(cls));
}

}  // namespace

// ---------------------------------------------------------------------------
// Thread-cache plumbing
// ---------------------------------------------------------------------------

struct DesignedAllocator::ThreadCache {
  ThreadCache() { pending.reserve(kPendingDrainBlocks); }

  /// Which allocator this cache drains into at thread exit; nullptr once
  /// it is gone.  Stored under the registry mutex.
  std::atomic<DesignedAllocator*> owner{nullptr};
  /// bins[b] holds (ptr, capacity) with bin_for(capacity) == b, oldest
  /// first.
  std::array<std::vector<std::pair<void*, std::size_t>>,
             alloc::SizeClass::kCount>
      bins;
  /// Whether the owner's roster held other caches when this one joined it
  /// (enlist) or at the last roster change its core_hold() saw.  A shared
  /// cache's bins take bin_entries()' deeper cap, and its misses refill.
  bool shared = false;
  /// Evicted blocks not yet released to the core, oldest first.  Cleared,
  /// never shrunk, so draining allocates nothing.
  std::vector<void*> pending;
  /// The owning thread's calls through owner, and the capacity its bins
  /// hold (counts.cached()); written by that thread only.  On its own
  /// cache line, away from the neighbouring heap objects.
  alignas(64) ThreadCounters counts;
  /// owner->roster_epoch_ when counts' high mark last restarted; under
  /// the owner's core_mu_.
  std::uint64_t high_epoch = 0;
};

/// Blocks one core-lock hold granted ahead of a request, filed in the
/// thread's cache once the hold ends.
struct DesignedAllocator::Refill {
  struct Block {
    void* ptr;
    std::size_t capacity;
  };
  /// Left uninitialised: only the first count entries are ever read.
  std::array<Block, kRefillMaxBlocks> blocks;
  std::size_t count = 0;
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
        auto* owner = c->owner.load(std::memory_order_relaxed);
        if (owner != nullptr) owner->retire(c);
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
    const DesignedAllocator* owner = c->owner.load(std::memory_order_acquire);
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
  {
    const std::lock_guard<std::mutex> reg(ThreadCacheRegistry::mutex());
    c->owner.store(this, std::memory_order_release);
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
  cache->shared = caches_.size() > 1;
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
    // A thread left alone falls back to the entry cap: its next push into
    // an over-deep bin evicts the excess.
    cache.shared = caches_.size() > 1;
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
           alloc::SizeClass::size_of(alloc::SizeClass::kCount - 1)})),
      slab_(arena_.slab()),
      table_(slab_.size() / alloc::kAlignment * sizeof(std::uint64_t)) {
  // No room for the table: every malloc fails through the OOM policy, as
  // when the arena has no slab.
  if (table_.span().size() < slab_.size()) slab_ = {};
}

DesignedAllocator::~DesignedAllocator() {
  const std::lock_guard<std::mutex> reg(ThreadCacheRegistry::mutex());
  for (ThreadCache* c : caches_) {
    flush_cache(*c);
    // The last touch of c: a thread that reads nullptr deletes it.
    c->owner.store(nullptr, std::memory_order_release);
  }
  const std::lock_guard<SpinParkLock> core_lock(core_mu_);
  caches_.clear();
}

std::atomic_ref<std::uint64_t> DesignedAllocator::entry_of(
    const void* p) const {
  const auto* q = static_cast<const std::byte*>(p);
  // std::less orders unrelated pointers too, so a pointer from outside the
  // slab is turned away before any pointer arithmetic on it.
  const std::less<const std::byte*> before;
  if (before(q, slab_.data()) || !before(q, slab_.data() + slab_.size())) {
    return TableWord(no_block);
  }
  const auto offset = static_cast<std::size_t>(q - slab_.data());
  if (offset % alloc::kAlignment != 0) return TableWord(no_block);
  return TableWord(reinterpret_cast<std::uint64_t*>(
      table_.span().data())[offset / alloc::kAlignment]);
}

// ---------------------------------------------------------------------------
// malloc / free / realloc / usable_size
// ---------------------------------------------------------------------------

void* DesignedAllocator::malloc(std::size_t bytes) {
  const std::size_t request = bytes == 0 ? 1 : bytes;
  ThreadCache* cache = this_thread_cache();
  if (cache != nullptr) {
    if (void* p = cache_pop(*cache, request)) {
      // Only this thread moves a block out of its cache, so no CAS.
      TableWord entry = entry_of(p);
      const std::uint64_t word = entry.load(std::memory_order_acquire);
      if (word == 0 || requested_of(word) != 0) {
        die("thread cache handed out an untracked block", p);
      }
      entry.store(table_word(capacity_of(word), request),
                  std::memory_order_release);
      cache->counts.note_alloc(request, /*from_cache=*/true);
      return p;
    }
  }
  return slow_malloc(request, cache);
}

void* DesignedAllocator::slow_malloc(std::size_t request, ThreadCache* cache) {
  std::size_t capacity = 0;
  Refill refill;
  void* p = core_allocate(request, &capacity, cache, &refill);
  if (p == nullptr && cache != nullptr) {
    // Reclaim before any policy fires: the calling thread's own cache may
    // hold exactly the memory the core needs.  Short of memory, the retry
    // takes no more than it asks for.
    flush_cache(*cache);
    p = core_allocate(request, &capacity, cache);
  }
  if (p == nullptr) p = handle_oom(request, &capacity, cache);
  if (p == nullptr) return nullptr;
  if (entry_of(p).exchange(table_word(capacity, request),
                           std::memory_order_acq_rel) != 0) {
    die("core handed out a live pointer twice", p);
  }
  // The cache-off path counted inside its core-lock hold.
  if (cache != nullptr) {
    cache->counts.note_alloc(request, /*from_cache=*/false);
    file_refill(*cache, refill);
  }
  return p;
}

void* DesignedAllocator::core_allocate(std::size_t request,
                                       std::size_t* capacity,
                                       ThreadCache* cache, Refill* refill) {
  return with_core(cache, [&]() -> void* {
    if (slab_.empty() || consume_injected_failure()) return nullptr;
    void* p = core_.allocate(request);
    if (p == nullptr) return nullptr;
    *capacity = core_.usable_size(p);
    if (cache == nullptr) {
      core_counts_.note_alloc(request, /*from_cache=*/false);
      sample_peak();
    } else if (refill != nullptr && cache->shared) {
      grant_ahead(*cache, request, *capacity, *refill);
    }
    return p;
  });
}

void DesignedAllocator::grant_ahead(const ThreadCache& cache,
                                    std::size_t request, std::size_t capacity,
                                    Refill& refill) {
  if (!cacheable(capacity)) return;
  // kRefillBytes of blocks of the missed block's capacity, no more than
  // its bin has entries left under the shared cap, and within the byte
  // budget.  The core may grant a later block more capacity than the
  // first: one that would break the budget goes straight back and ends
  // the refill.  (One whose capacity lands in another bin is filed there
  // through cache_push(), which keeps that bin's cap.)
  const unsigned cls = bin_for(capacity);
  const std::size_t cap = bin_entries(opts_, cls, /*shared=*/true);
  const std::size_t blocks =
      std::min(kRefillBytes / capacity,
               cap - std::min(cap, cache.bins[cls].size()));
  const auto cached = static_cast<std::size_t>(cache.counts.cached());
  std::size_t room =
      opts_.thread_cache_bytes - std::min(opts_.thread_cache_bytes, cached);
  while (refill.count < blocks && room >= capacity) {
    // Straight to the core: no injected failure is taken and no OOM
    // policy fires; the first refusal ends the refill.
    void* q = core_.allocate(request);
    if (q == nullptr) return;
    const std::size_t granted = core_.usable_size(q);
    if (granted > room) {
      core_.deallocate(q);
      return;
    }
    refill.blocks[refill.count++] = {q, granted};
    room -= granted;
  }
}

void DesignedAllocator::file_refill(ThreadCache& cache, const Refill& refill) {
  for (std::size_t i = 0; i < refill.count; ++i) {
    const auto [q, capacity] = refill.blocks[i];
    if (entry_of(q).exchange(table_word(capacity, 0),
                             std::memory_order_acq_rel) != 0) {
      die("core handed out a live pointer twice", q);
    }
    cache_push(cache, q, capacity);
  }
  if (refill.count > 0) cache.counts.note_refill(refill.count);
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
  ThreadCache* cache = this_thread_cache();
  TableWord entry = entry_of(ptr);
  std::uint64_t word = entry.load(std::memory_order_acquire);
  bool to_cache = false;
  do {  // a failed CAS reloads word: a racing free shows as its new state
    if (word == 0) {
      die("free of a pointer this allocator does not own "
          "(wild or double free)",
          ptr);
    }
    if (requested_of(word) == 0) die("double free of a cached block", ptr);
    to_cache = cache != nullptr && cacheable(capacity_of(word));
  } while (!entry.compare_exchange_weak(
      word, to_cache ? table_word(capacity_of(word), 0) : 0,
      std::memory_order_acq_rel, std::memory_order_acquire));
  const std::size_t capacity = capacity_of(word);
  const std::size_t requested = requested_of(word);
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
  TableWord entry = entry_of(ptr);
  std::uint64_t word = entry.load(std::memory_order_acquire);
  // In place when the core's grant already covers the new size.  A failed
  // CAS means a free raced this realloc: the block is no longer ours.
  const bool in_place = capacity_of(word) >= bytes;
  if (requested_of(word) == 0 ||
      (in_place && !entry.compare_exchange_strong(
                       word, table_word(capacity_of(word), bytes),
                       std::memory_order_acq_rel))) {
    die("realloc of a pointer this allocator does not own", ptr);
  }
  const std::size_t old_requested = requested_of(word);
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
  const std::uint64_t word = entry_of(ptr).load(std::memory_order_acquire);
  // Neither an unowned pointer (0) nor a cached block counts as live.
  return requested_of(word) == 0 ? 0 : capacity_of(word);
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
  const unsigned cls = bin_for(capacity);
  auto& bin = cache.bins[cls];
  if (bin.size() == bin.capacity()) {
    // Before a push a bin is within its shared entry cap (the deeper one)
    // and within the byte budget at over half its class size an entry:
    // it grows once, whether or not the front is shared yet.
    const std::size_t by_budget =
        opts_.thread_cache_bytes / (alloc::SizeClass::size_of(cls) / 2 + 1);
    const std::size_t deepest = bin_entries(opts_, cls, /*shared=*/true);
    bin.reserve(std::min(deepest, by_budget) + 1);
  }
  bin.emplace_back(ptr, capacity);
  cache.counts.add_cached(static_cast<std::int64_t>(capacity));
  // Per-bin entry cap: evict the oldest of this bin beyond it.
  const std::size_t entries = bin_entries(opts_, cls, cache.shared);
  if (bin.size() > entries) {
    const std::size_t drop = bin.size() - entries;
    for (std::size_t i = 0; i < drop; ++i) {
      evict(cache, bin[i].first, bin[i].second);
    }
    bin.erase(bin.begin(), bin.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  // Byte budget: shed the largest cached blocks first.
  const auto over_budget = [&] {
    return static_cast<std::size_t>(cache.counts.cached()) >
           opts_.thread_cache_bytes;
  };
  for (std::size_t b = cache.bins.size(); b-- > 0 && over_budget();) {
    auto& shed = cache.bins[b];
    while (!shed.empty() && over_budget()) {
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
  const auto take = [&cache](auto& bin, std::size_t i) {
    void* p = bin[i].first;
    cache.counts.add_cached(-static_cast<std::int64_t>(bin[i].second));
    bin.erase(bin.begin() + static_cast<std::ptrdiff_t>(i));
    return p;
  };
  // Own class, newest first: the first block whose capacity fits.
  auto& own = cache.bins[b];
  const std::size_t stop =
      own.size() - std::min(own.size(), bin_entries(opts_, b, cache.shared));
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
  entry_of(ptr).store(0, std::memory_order_release);
  cache.counts.add_cached(-static_cast<std::int64_t>(capacity));
  cache.pending.push_back(ptr);
}

void DesignedAllocator::drain_pending(ThreadCache& cache) {
  for (void* p : cache.pending) core_.deallocate(p);
  cache.pending.clear();
}

void DesignedAllocator::flush_cache(ThreadCache& cache) {
  for (auto& bin : cache.bins) {
    for (const auto& [p, capacity] : bin) evict(cache, p, capacity);
    bin.clear();
  }
  if (cache.pending.empty()) return;
  const std::lock_guard<SpinParkLock> core_lock(core_mu_);
  core_hold(cache);
}

}  // namespace dmm::runtime
