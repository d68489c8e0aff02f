#include "dmm/sysmem/system_arena.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define DMM_SYSMEM_HAVE_MMAP 1
#endif

namespace dmm::sysmem {

namespace {

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "dmm::sysmem fatal: %s\n", what);
  std::abort();
}

bool is_power_of_two(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Smallest carve granularity: keeps every grant ChunkHeader-aligned even
/// when the configured page size is smaller than 16.
constexpr std::size_t kGrainBytes = 16;

}  // namespace

Reservation::Reservation(std::size_t bytes) {
  if (bytes == 0) return;
#if DMM_SYSMEM_HAVE_MMAP
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS
#ifdef MAP_NORESERVE
                       | MAP_NORESERVE
#endif
                   ,
                   -1, 0);
  if (p == MAP_FAILED) return;
#else
  bytes = std::min(bytes, kFallbackBytes);
  void* p = std::calloc(bytes, 1);
  if (p == nullptr) return;
#endif
  span_ = {static_cast<std::byte*>(p), bytes};
}

Reservation::~Reservation() {
  if (span_.empty()) return;
#if DMM_SYSMEM_HAVE_MMAP
  ::munmap(span_.data(), span_.size());
#else
  std::free(span_.data());
#endif
}

SystemArena::SystemArena(std::size_t capacity_bytes, std::size_t page_size)
    : capacity_(capacity_bytes),
      page_size_(page_size),
      grain_shift_(std::countr_zero(std::max(page_size, kGrainBytes))) {
  if (!is_power_of_two(page_size_)) {
    die("page size must be a power of two");
  }
}

bool SystemArena::ensure_slab() {
  if (slab_bytes_ != 0) return true;
  // Attempted once: a failed reservation would otherwise repeat on every
  // request and drown the search in allocation churn.
  if (slab_failed_) return false;
  // One reservation holds the slab and, behind it, the page map (one Slot
  // per granule), so an arena still costs one mmap.  The no-mmap fallback
  // may grant less; what it grants is split alike.
  const std::size_t grain = std::size_t{1} << grain_shift_;
  const std::size_t per_grain = grain + sizeof(Slot);
  slab_ = Reservation(kSlabBytes / grain * per_grain);
  slab_bytes_ = slab_.span().size() / per_grain * grain;
  slab_failed_ = slab_bytes_ == 0;
  return !slab_failed_;
}

std::span<const std::byte> SystemArena::slab() {
  if (!ensure_slab()) return {};
  return slab_.span().first(slab_bytes_);
}

std::size_t SystemArena::take_region(std::size_t size) {
  // Lowest-offset-first reuse: the scan order is a pure function of the
  // request/release history, which is what makes chunk addresses — and
  // every address-ordered structure built on them — deterministic.
  for (auto it = free_regions_.begin(); it != free_regions_.end(); ++it) {
    if (it->second < size) continue;
    const std::size_t offset = it->first;
    const std::size_t remainder = it->second - size;
    free_regions_.erase(it);
    if (remainder > 0) free_regions_.emplace(offset + size, remainder);
    return offset;
  }
  if (slab_bytes_ - bump_ < size) return kNpos;
  const std::size_t offset = bump_;
  bump_ += size;
  return offset;
}

void SystemArena::give_region(std::size_t offset, std::size_t size) {
  // Coalesce with the free neighbours, then fold a region ending at the
  // bump frontier back into the wilderness.
  auto next = free_regions_.lower_bound(offset);
  if (next != free_regions_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      offset = prev->first;
      size += prev->second;
      free_regions_.erase(prev);
    }
  }
  if (next != free_regions_.end() && offset + size == next->first) {
    size += next->second;
    free_regions_.erase(next);
  }
  if (offset + size == bump_) {
    bump_ = offset;
    return;
  }
  free_regions_.emplace(offset, size);
}

std::size_t SystemArena::rounded(std::size_t bytes) const {
  if (bytes == 0) bytes = 1;
  return (bytes + page_size_ - 1) & ~(page_size_ - 1);
}

std::byte* SystemArena::request(std::size_t bytes, const void* owner,
                                std::size_t* granted) {
  // Checked before rounding, which would wrap a size near SIZE_MAX.
  if (bytes > kSlabBytes) {
    ++stats_.failed_requests;
    return nullptr;
  }
  const std::size_t size = rounded(bytes);
  if (capacity_ != 0 && stats_.current_footprint + size > capacity_) {
    ++stats_.failed_requests;
    return nullptr;
  }
  if (!ensure_slab()) {
    ++stats_.failed_requests;
    return nullptr;
  }
  // Grants are carved in whole granules, so each starts on a page-map slot.
  const std::size_t count = granules(size);
  const std::size_t offset = take_region(count << grain_shift_);
  if (offset == kNpos) {
    ++stats_.failed_requests;
    return nullptr;
  }
  const std::size_t first = offset >> grain_shift_;
  Slot* const map = slots();
  for (std::size_t i = first; i < first + count; ++i) map[i].head = first + 1;
  map[first].size = size;
  map[first].owner = owner;
  std::byte* ptr = slab_.span().data() + offset;
  stats_.current_footprint += size;
  stats_.total_requested += size;
  ++stats_.request_count;
  if (stats_.current_footprint > stats_.peak_footprint) {
    stats_.peak_footprint = stats_.current_footprint;
  }
  if (granted != nullptr) *granted = size;
  return ptr;
}

void SystemArena::release(std::byte* ptr) {
  const Grant grant = grant_of(ptr);
  if (!grant || grant.base != ptr) {
    die("release() of a pointer that is not a live grant");
  }
  const std::size_t size = grant.size;
  const auto offset = static_cast<std::size_t>(ptr - slab_.span().data());
  const std::size_t first = offset >> grain_shift_;
  const std::size_t count = granules(size);
  Slot* const map = slots();
  for (std::size_t i = first; i < first + count; ++i) map[i] = Slot{};
  give_region(offset, count << grain_shift_);
  stats_.current_footprint -= size;
  stats_.total_released += size;
  ++stats_.release_count;
}

void SystemArena::release_all(const void* owner) {
  // Every slot at or beyond the bump frontier is free.
  for (std::size_t i = 0; i < (bump_ >> grain_shift_); ++i) {
    const Slot& slot = slots()[i];
    if (slot.head == i + 1 && slot.owner == owner) {
      release(slab_.span().data() + (i << grain_shift_));
    }
  }
}

}  // namespace dmm::sysmem
