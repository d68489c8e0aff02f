#ifndef DMM_SYSMEM_SYSTEM_ARENA_H
#define DMM_SYSMEM_SYSTEM_ARENA_H

#include <cstddef>
#include <map>
#include <memory_resource>
#include <span>
#include <utility>

#include "dmm/sysmem/arena_stats.h"

namespace dmm::sysmem {

/// A live grant as SystemArena::grant_of resolves it; empty (null base)
/// when no live grant covers the queried address.
struct Grant {
  std::byte* base = nullptr;    ///< first byte of the grant
  std::size_t size = 0;         ///< granted bytes (page-rounded)
  const void* owner = nullptr;  ///< tag passed to SystemArena::request

  explicit operator bool() const { return base != nullptr; }
};

/// Zero-filled address space that commits on touch: an anonymous
/// MAP_NORESERVE mapping, or, on hosts without mmap, one eager zeroed
/// allocation capped at kFallbackBytes.  Every arena's slab is one, and so
/// is any side table indexed by slab offset (the runtime front's block
/// table).  Move-only; the memory goes back to the OS with the object.
class Reservation {
 public:
  /// Cap of the no-mmap fallback, which commits everything up front.
  static constexpr std::size_t kFallbackBytes = std::size_t{1} << 28;

  Reservation() = default;
  /// Reserves @p bytes (at most kFallbackBytes without mmap); empty when
  /// @p bytes is 0 or the OS refuses.
  explicit Reservation(std::size_t bytes);
  Reservation(Reservation&& other) noexcept
      : span_(std::exchange(other.span_, {})) {}
  Reservation& operator=(Reservation&& other) noexcept {
    std::swap(span_, other.span_);
    return *this;
  }
  ~Reservation();

  [[nodiscard]] std::span<std::byte> span() const { return span_; }

 private:
  std::span<std::byte> span_;
};

/// Simulated OS memory interface (the paper's "system memory").
///
/// Every dynamic-memory manager in this library draws *all* of its storage
/// from a SystemArena, mimicking sbrk()/mmap() on the embedded OS the paper
/// targets.  The arena therefore observes the exact footprint each manager
/// imposes on the platform:
///
///   * request(bytes, owner) — obtain a chunk from the OS (rounded up to
///                       the page granularity), tagged with its owner;
///                       counted into the footprint.
///   * release(chunk)  — hand a chunk back to the OS (what the paper calls
///                       "returned back to the system for other
///                       applications"); removed from the footprint.
///
/// The arena optionally enforces a capacity budget, modelling the limited
/// physical memory of a portable consumer device: a request that would
/// exceed the budget fails (returns nullptr) instead of growing.
///
/// The trace simulator records the Fig. 5 footprint-over-time series by
/// sampling footprint() into simulate()'s timeline as it replays.
///
/// The arena is deliberately single-threaded: the paper's methodology is
/// applied per application phase on an embedded RTOS where the manager runs
/// under one lock anyway.  (Thread-safety would only blur the footprint
/// accounting the experiments need.)  Distinct arenas on distinct threads
/// are fully independent.
///
/// **Deterministic addresses.**  Chunks are carved from one reserved slab
/// (lowest-offset-first reuse of released regions), so an identical
/// request/release sequence yields identical chunk *offsets* — and hence
/// identical address ordering — in every run, on every thread.  Managers
/// keep address-sorted free lists and first-fit scan orders; without this,
/// two replays of the same candidate could disagree, and the parallel
/// exploration engine could not promise bit-identical results to the
/// serial one.
///
/// **One address map.**  A page map indexed by slab offset answers "which
/// grant, and which owner, holds this pointer?" in O(1) for every manager
/// drawing from the arena.  Like all the arena's books it is host
/// bookkeeping, not charged to the footprint.  It lies behind the slab in
/// the slab's own reservation, one slot per granule, so reaching a new
/// high-water mark commits pages of it but never calls the system heap
/// (the runtime front requests chunks inside its core lock).
class SystemArena {
 public:
  /// Page granularity used to round requests, like an MMU page.
  static constexpr std::size_t kDefaultPageSize = 4096;

  /// Slab backing one arena (lazily mapped, pages commit on touch; its
  /// page map is reserved behind it).  ~1000x the largest workload
  /// footprint in the repo; request() fails like an exhausted OS once it
  /// is spent.  Shrunk on 32-bit hosts, where 4 GiB does not even fit in
  /// size_t; on hosts without mmap, slab and map share
  /// Reservation::kFallbackBytes.
  static constexpr std::size_t kSlabBytes = sizeof(std::size_t) >= 8
                                                ? std::size_t{1} << 32
                                                : std::size_t{1} << 30;

  /// Creates an arena with unlimited capacity.
  SystemArena() : SystemArena(0, kDefaultPageSize) {}

  /// @param capacity_bytes  0 = unlimited; otherwise hard budget.
  /// @param page_size       rounding granularity for requests (power of 2).
  explicit SystemArena(std::size_t capacity_bytes,
                       std::size_t page_size = kDefaultPageSize);

  SystemArena(const SystemArena&) = delete;
  SystemArena& operator=(const SystemArena&) = delete;

  /// Obtains @p bytes (rounded up to the page size) from the simulated OS.
  /// @p owner is an opaque tag grant_of() reports for the grant.  Returns
  /// nullptr if @p bytes exceeds kSlabBytes or the capacity budget.
  /// The actual granted size is written to *granted (if non-null).
  [[nodiscard]] std::byte* request(std::size_t bytes, const void* owner,
                                   std::size_t* granted = nullptr);

  /// Returns a chunk previously obtained with request().
  /// @p ptr must be exactly a pointer returned by request() and not yet
  /// released; anything else aborts (memory-corruption tripwire).
  void release(std::byte* ptr);

  /// Releases every live grant tagged @p owner (a manager's teardown).
  void release_all(const void* owner);

  /// Size that request(bytes) would actually grant (page rounding).
  [[nodiscard]] std::size_t rounded(std::size_t bytes) const;

  [[nodiscard]] const ArenaStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t page_size() const { return page_size_; }

  /// Bytes currently held from the OS.  Convenience accessor.
  [[nodiscard]] std::size_t footprint() const {
    return stats_.current_footprint;
  }
  /// High-water mark — the paper's "maximum memory footprint".
  [[nodiscard]] std::size_t peak_footprint() const {
    return stats_.peak_footprint;
  }

  /// Number of chunks currently granted and not yet released.
  [[nodiscard]] std::size_t live_chunks() const {
    return static_cast<std::size_t>(stats_.live_grants());
  }

  /// The live grant whose [base, base + size) contains @p p, in O(1).
  /// Empty for a pointer outside the slab, beyond the bump frontier, or in
  /// a free granule.
  [[nodiscard]] Grant grant_of(const void* p) const;

  /// Maps the slab now, if no request has mapped it yet, and returns its
  /// span (empty if the reservation failed).  The slab never moves and
  /// every grant lies inside it, so a side table indexed by slab offset
  /// can be sized once from this span.
  [[nodiscard]] std::span<const std::byte> slab();

 private:
  /// Page-map slot, one per granule (page size, at least 16 bytes).
  /// `head` is 1 + the start granule of the live grant covering it (0 =
  /// free); size and owner are kept at the start slot only.
  struct Slot {
    std::size_t head = 0;
    std::size_t size = 0;
    const void* owner = nullptr;
  };

  /// Maps the slab and its page map on first use (keeps never-used arenas
  /// free).
  [[nodiscard]] bool ensure_slab();
  /// The page map: zero-filled pages read as free slots.
  [[nodiscard]] Slot* slots() const {
    return reinterpret_cast<Slot*>(slab_.span().data() + slab_bytes_);
  }
  /// Lowest-offset region of >= @p size bytes, or npos.
  [[nodiscard]] std::size_t take_region(std::size_t size);
  void give_region(std::size_t offset, std::size_t size);
  [[nodiscard]] std::size_t granules(std::size_t size) const {
    return (size + (std::size_t{1} << grain_shift_) - 1) >> grain_shift_;
  }

  std::size_t capacity_;
  std::size_t page_size_;
  int grain_shift_;  ///< log2 of the page-map granule
  ArenaStats stats_;

  // Deterministic slab: released regions keyed by offset (ordered, so
  // reuse is lowest-offset-first), plus a bump pointer for fresh carves.
  /// slab_bytes_ of slab, then the page map (slots()).
  Reservation slab_;
  std::size_t slab_bytes_ = 0;  ///< 0 until the slab is mapped
  bool slab_failed_ = false;  ///< reservation failed; don't retry
  std::size_t bump_ = 0;
  /// Recycles free_regions_' nodes, so an arena whose release pattern
  /// repeats stops calling the system heap once warm.
  std::pmr::unsynchronized_pool_resource region_nodes_;
  std::pmr::map<std::size_t, std::size_t> free_regions_{
      &region_nodes_};  // offset -> size
};

inline Grant SystemArena::grant_of(const void* p) const {
  const auto* q = static_cast<const std::byte*>(p);
  std::byte* const slab = slab_.span().data();
  // std::less orders unrelated pointers too, so a pointer from outside the
  // slab is turned away before any pointer arithmetic on it.
  const std::less<const std::byte*> before;
  if (slab == nullptr || before(q, slab) || !before(q, slab + bump_)) {
    return {};
  }
  const auto offset = static_cast<std::size_t>(q - slab);
  const std::size_t head = slots()[offset >> grain_shift_].head;
  if (head == 0) return {};
  const Slot& start = slots()[head - 1];
  const std::size_t base = (head - 1) << grain_shift_;
  // A sub-granule grant (page size < 16) leaves a tail no grant covers.
  if (offset - base >= start.size) return {};
  return {slab + base, start.size, start.owner};
}

}  // namespace dmm::sysmem

#endif  // DMM_SYSMEM_SYSTEM_ARENA_H
