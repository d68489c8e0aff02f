#include "dmm/sysmem/system_arena.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define DMM_SYSMEM_HAVE_MMAP 1
#else
#include <new>
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

SystemArena::SystemArena(std::size_t capacity_bytes, std::size_t page_size)
    : capacity_(capacity_bytes),
      page_size_(page_size),
      grain_shift_(std::countr_zero(std::max(page_size, kGrainBytes))) {
  if (!is_power_of_two(page_size_)) {
    die("page size must be a power of two");
  }
}

SystemArena::~SystemArena() {
  // Managers are expected to release everything; tests assert
  // live_chunks()==0.  The whole slab goes back to the OS either way.
  if (slab_ != nullptr) {
#if DMM_SYSMEM_HAVE_MMAP
    ::munmap(slab_, slab_bytes_);
#else
    ::operator delete(slab_, std::align_val_t{kGrainBytes});
#endif
  }
}

bool SystemArena::ensure_slab() {
  if (slab_ != nullptr) return true;
  if (slab_failed_) return false;
#if DMM_SYSMEM_HAVE_MMAP
  void* p = ::mmap(nullptr, kSlabBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS
#ifdef MAP_NORESERVE
                       | MAP_NORESERVE
#endif
                   ,
                   -1, 0);
  if (p == MAP_FAILED) {
    slab_failed_ = true;
    return false;
  }
  slab_ = static_cast<std::byte*>(p);
  slab_bytes_ = kSlabBytes;
#else
  // Fallback: one *eager* allocation, so it must stay modest — and it is
  // attempted once (a failed 256 MiB grab would otherwise repeat on every
  // request and drown the search in allocation churn).
  slab_ = static_cast<std::byte*>(::operator new(
      kFallbackSlabBytes, std::align_val_t{kGrainBytes}, std::nothrow));
  if (slab_ == nullptr) {
    slab_failed_ = true;
    return false;
  }
  slab_bytes_ = kFallbackSlabBytes;
#endif
  return true;
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
  if (page_map_.size() < first + count) page_map_.resize(first + count);
  for (std::size_t i = first; i < first + count; ++i) {
    page_map_[i].head = first + 1;
  }
  page_map_[first].size = size;
  page_map_[first].owner = owner;
  std::byte* ptr = slab_ + offset;
  stats_.current_footprint += size;
  stats_.total_requested += size;
  ++stats_.request_count;
  if (stats_.current_footprint > stats_.peak_footprint) {
    stats_.peak_footprint = stats_.current_footprint;
  }
  if (granted != nullptr) *granted = size;
  if (observer_) observer_(stats_, static_cast<long long>(size));
  return ptr;
}

void SystemArena::release(std::byte* ptr) {
  const Grant grant = grant_of(ptr);
  if (!grant || grant.base != ptr) {
    die("release() of a pointer that is not a live grant");
  }
  const std::size_t size = grant.size;
  const auto offset = static_cast<std::size_t>(ptr - slab_);
  const std::size_t first = offset >> grain_shift_;
  const std::size_t count = granules(size);
  for (std::size_t i = first; i < first + count; ++i) page_map_[i] = Slot{};
  give_region(offset, count << grain_shift_);
  stats_.current_footprint -= size;
  stats_.total_released += size;
  ++stats_.release_count;
  if (observer_) observer_(stats_, -static_cast<long long>(size));
}

void SystemArena::release_all(const void* owner) {
  for (std::size_t i = 0; i < page_map_.size(); ++i) {
    const Slot& slot = page_map_[i];
    if (slot.head == i + 1 && slot.owner == owner) {
      release(slab_ + (i << grain_shift_));
    }
  }
}

}  // namespace dmm::sysmem
