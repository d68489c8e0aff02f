#include "dmm/managers/kingsley.h"

#include <cstdio>
#include <cstdlib>

namespace dmm::managers {

using alloc::ChunkHeader;
using alloc::SizeClass;

namespace {
[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "dmm::managers::Kingsley fatal: %s\n", what);
  std::abort();
}
}  // namespace

KingsleyAllocator::KingsleyAllocator(sysmem::SystemArena& arena,
                                     std::size_t chunk_bytes,
                                     std::size_t initial_reserve_bytes)
    : Allocator(arena), chunk_bytes_(chunk_bytes) {
  if (initial_reserve_bytes == 0) return;
  // Initial reserve: one grant pre-carved into blocks spread equally over
  // the small classes (16 B .. 4 KiB), per the paper's description.
  const std::size_t total = sizeof(ChunkHeader) + initial_reserve_bytes;
  std::size_t granted = 0;
  std::byte* base = arena_->request(total, owner_tag(), &granted);
  if (base == nullptr) return;  // tiny arena budget: skip the reserve
  auto* chunk = reinterpret_cast<ChunkHeader*>(base);
  chunk->init(granted, nullptr);
  ++stats_.chunks_grown;
  constexpr unsigned kFirst = 1;  // class 16 B (index 1 = 2^4)
  constexpr unsigned kLast = 9;   // class 4 KiB (index 9 = 2^12)
  const std::size_t share = chunk->data_bytes() / (kLast - kFirst + 1);
  for (unsigned idx = kFirst; idx <= kLast; ++idx) {
    const std::size_t block_size = SizeClass::size_of(idx);
    for (std::size_t n = 0; n < share / block_size; ++n) {
      if (chunk->wilderness_bytes() < block_size) break;
      std::byte* block = chunk->wilderness();
      chunk->bump += block_size;
      *reinterpret_cast<std::size_t*>(block) = block_size;
      auto* node = reinterpret_cast<FreeNode*>(block + kHeader);
      node->next = bins_[idx];
      bins_[idx] = node;
      ++bin_counts_[idx];
    }
  }
}

KingsleyAllocator::~KingsleyAllocator() { arena_->release_all(owner_tag()); }

std::byte* KingsleyAllocator::carve(std::size_t block_size) {
  if (carve_chunk_ == nullptr ||
      carve_chunk_->wilderness_bytes() < block_size) {
    // Kingsley never reuses old chunk tails for new classes; the remnant
    // simply stays unused (part of its footprint story).  We scan anyway
    // only when the current chunk cannot serve — the classic behaviour of
    // grabbing fresh core.
    std::size_t total = sizeof(ChunkHeader) + block_size;
    if (total < chunk_bytes_) total = chunk_bytes_;
    std::size_t granted = 0;
    std::byte* base = arena_->request(total, owner_tag(), &granted);
    if (base == nullptr) return nullptr;
    auto* chunk = reinterpret_cast<ChunkHeader*>(base);
    chunk->init(granted, nullptr);
    carve_chunk_ = chunk;
    ++stats_.chunks_grown;
  }
  std::byte* block = carve_chunk_->wilderness();
  carve_chunk_->bump += block_size;
  ++carve_chunk_->live_blocks;
  return block;
}

void* KingsleyAllocator::allocate(std::size_t bytes) {
  if (reject_oversized(bytes)) return nullptr;
  const std::size_t request = bytes == 0 ? 1 : bytes;
  // Round payload+header up to a power of two: the block IS the class size.
  const std::size_t block_size = SizeClass::round_up_pow2(request + kHeader);
  const unsigned idx = SizeClass::index_for(block_size);
  std::byte* block = nullptr;
  if (bins_[idx] != nullptr) {
    FreeNode* node = bins_[idx];
    bins_[idx] = node->next;
    --bin_counts_[idx];
    block = reinterpret_cast<std::byte*>(node) - kHeader;
  } else {
    block = carve(SizeClass::size_of(idx));
    if (block == nullptr) {
      ++stats_.failed_allocs;
      return nullptr;
    }
  }
  *reinterpret_cast<std::size_t*>(block) = SizeClass::size_of(idx);
  // Live bytes are tracked at block-capacity granularity (symmetric with
  // deallocate, which cannot recover the original request size).
  note_alloc(SizeClass::size_of(idx) - kHeader);
  (void)request;
  return block + kHeader;
}

void KingsleyAllocator::deallocate(void* ptr) {
  if (ptr == nullptr) return;
  std::byte* block = static_cast<std::byte*>(ptr) - kHeader;
  const std::size_t block_size = *reinterpret_cast<std::size_t*>(block);
  if (block_size == 0 || (block_size & (block_size - 1)) != 0) {
    die("deallocate: corrupt class header");
  }
  const unsigned idx = SizeClass::index_for(block_size);
  auto* node = reinterpret_cast<FreeNode*>(ptr);
  node->next = bins_[idx];
  bins_[idx] = node;
  ++bin_counts_[idx];
  // note_free with the block's payload capacity: Kingsley cannot know the
  // original request size (no strict registry) — tests use usable_size.
  note_free(block_size - kHeader);
}

std::size_t KingsleyAllocator::usable_size(const void* ptr) const {
  const std::byte* block = static_cast<const std::byte*>(ptr) - kHeader;
  return *reinterpret_cast<const std::size_t*>(block) - kHeader;
}

std::size_t KingsleyAllocator::free_blocks_in_class(unsigned idx) const {
  return bin_counts_.at(idx);
}

}  // namespace dmm::managers
