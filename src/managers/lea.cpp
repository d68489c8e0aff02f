#include "dmm/managers/lea.h"

#include <cstdio>
#include <cstdlib>

#include "dmm/alloc/size_class.h"

namespace dmm::managers {

using alloc::BlockLayout;
using alloc::ChunkHeader;

namespace {
[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "dmm::managers::Lea fatal: %s\n", what);
  std::abort();
}

// Non-null marker distinguishing heap chunks from dedicated (mmap-like)
// chunks, which use owner == nullptr as in the rest of the library.
alloc::PoolBase* heap_tag() {
  return reinterpret_cast<alloc::PoolBase*>(1);
}

alloc::DmmConfig lea_layout_config() {
  alloc::DmmConfig c;
  c.block_tags = alloc::BlockTags::kHeaderFooter;
  c.recorded_info = alloc::RecordedInfo::kSizeAndStatus;
  return c;
}
}  // namespace

LeaAllocator::LeaAllocator(sysmem::SystemArena& arena,
                           std::size_t chunk_bytes,
                           std::size_t mmap_threshold)
    : Allocator(arena),
      chunk_bytes_(chunk_bytes),
      mmap_threshold_(mmap_threshold),
      layout_(BlockLayout::from(lea_layout_config())) {
  for (auto& bin : small_bins_) {
    bin = std::make_unique<LeaBin>(alloc::BlockStructure::kDoublyLinkedList,
                                   alloc::FreeListOrder::kLIFO, layout_,
                                   /*fixed_size=*/0);
  }
  large_bin_ = std::make_unique<LeaBin>(
      alloc::BlockStructure::kDoublySortedBySize,
      alloc::FreeListOrder::kSizeOrdered, layout_, /*fixed_size=*/0);
}

LeaAllocator::~LeaAllocator() { arena_->release_all(owner_tag()); }

std::size_t LeaAllocator::block_size_for(std::size_t payload) const {
  const std::size_t sz =
      alloc::align_up(layout_.header_bytes() + alloc::align_up(payload));
  return sz < kMinBlock ? kMinBlock : sz;
}

std::byte* LeaAllocator::take_from_bins(std::size_t block_size) {
  const int bin = small_bin_for(block_size);
  if (bin >= 0) {
    // Exact small bin first, then increasingly larger small bins.
    for (std::size_t i = static_cast<std::size_t>(bin); i < kSmallBins; ++i) {
      if (!small_bins_[i]->empty()) {
        return small_bins_[i]->take_fit(block_size,
                                        alloc::FitAlgorithm::kFirstFit);
      }
    }
  }
  return large_bin_->take_fit(block_size, alloc::FitAlgorithm::kBestFit);
}

void LeaAllocator::put_in_bin(std::byte* block, std::size_t size) {
  layout_.write_header(block, size, /*free=*/true, /*prev_free=*/false);
  layout_.write_footer(block, size);
  const int bin = small_bin_for(size);
  if (bin >= 0) {
    small_bins_[static_cast<std::size_t>(bin)]->insert(block);
  } else {
    large_bin_->insert(block);
  }
}

void LeaAllocator::unbin(std::byte* block, std::size_t size) {
  const int bin = small_bin_for(size);
  if (bin >= 0) {
    small_bins_[static_cast<std::size_t>(bin)]->remove(block);
  } else {
    large_bin_->remove(block);
  }
}

std::byte* LeaAllocator::carve(std::size_t block_size) {
  if (carve_chunk_ == nullptr ||
      carve_chunk_->wilderness_bytes() < block_size) {
    carve_chunk_ = nullptr;
    for (ChunkHeader* c = chunks_; c != nullptr; c = c->next) {
      if (c->wilderness_bytes() >= block_size) {
        carve_chunk_ = c;
        break;
      }
    }
  }
  if (carve_chunk_ == nullptr) {
    std::size_t total = sizeof(ChunkHeader) + block_size;
    if (total < chunk_bytes_) total = chunk_bytes_;
    std::size_t granted = 0;
    std::byte* base = arena_->request(total, owner_tag(), &granted);
    if (base == nullptr) return nullptr;
    auto* chunk = reinterpret_cast<ChunkHeader*>(base);
    chunk->init(granted, heap_tag());
    chunk->next = chunks_;
    chunks_ = chunk;
    carve_chunk_ = chunk;
    ++stats_.chunks_grown;
  }
  std::byte* block = carve_chunk_->wilderness();
  carve_chunk_->bump += block_size;
  return block;
}

void* LeaAllocator::allocate(std::size_t bytes) {
  if (reject_oversized(bytes)) return nullptr;
  const std::size_t request = bytes == 0 ? 1 : bytes;
  if (request >= mmap_threshold_) {
    // mmap path: dedicated chunk, released straight back on free.
    const std::size_t need = block_size_for(request);
    std::size_t granted = 0;
    std::byte* base =
        arena_->request(sizeof(ChunkHeader) + need, owner_tag(), &granted);
    if (base == nullptr) {
      ++stats_.failed_allocs;
      return nullptr;
    }
    auto* chunk = reinterpret_cast<ChunkHeader*>(base);
    chunk->init(granted, nullptr);
    chunk->live_blocks = 1;
    chunk->bump = chunk->chunk_size;
    std::byte* block = chunk->data();
    layout_.write_header(block, chunk->data_bytes(), false);
    note_alloc(layout_.live_payload(chunk->data_bytes()));
    return layout_.payload(block);
  }

  const std::size_t block_size = block_size_for(request);
  std::byte* block = take_from_bins(block_size);
  if (block == nullptr) {
    // No cached block fits and the wilderness may be short too: run the
    // deferred coalescing sweep before asking the system for more — the
    // "seldom" coalescing of the paper's Lea.
    bool wilderness_ok = false;
    for (ChunkHeader* c = chunks_; c != nullptr && !wilderness_ok;
         c = c->next) {
      wilderness_ok = c->wilderness_bytes() >= block_size;
    }
    if (!wilderness_ok && coalesce_sweep() > 0) {
      block = take_from_bins(block_size);
    }
  }
  std::size_t have = block_size;
  ChunkHeader* chunk = nullptr;
  if (block != nullptr) {
    have = layout_.read_size(block);
    chunk = own_chunk(block);
    if (have - block_size >= kMinBlock) {
      // Split; the remainder goes back to its bin.
      std::byte* rem = block + block_size;
      const std::size_t rem_size = have - block_size;
      put_in_bin(rem, rem_size);
      std::byte* after = rem + rem_size;
      if (after < chunk->wilderness()) layout_.set_prev_free(after, true);
      ++stats_.splits;
      have = block_size;
    }
  } else {
    block = carve(block_size);
    if (block == nullptr) {
      ++stats_.failed_allocs;
      return nullptr;
    }
    chunk = carve_chunk_;
  }
  layout_.write_header(block, have, /*free=*/false, /*prev_free=*/false);
  std::byte* next = block + have;
  if (next < chunk->wilderness()) layout_.set_prev_free(next, false);
  ++chunk->live_blocks;
  note_alloc(layout_.live_payload(have));
  return layout_.payload(block);
}

std::size_t LeaAllocator::coalesce_sweep() {
  std::size_t merges = 0;
  for (ChunkHeader* chunk = chunks_; chunk != nullptr; chunk = chunk->next) {
    std::byte* pos = chunk->data();
    std::byte* run_start = nullptr;
    std::size_t run_size = 0;
    std::size_t run_blocks = 0;

    auto flush = [&](bool into_wilderness) {
      if (run_start == nullptr) return;
      if (into_wilderness) {
        chunk->bump -= run_size;
        merges += run_blocks;
      } else if (run_blocks > 1) {
        put_in_bin(run_start, run_size);
        merges += run_blocks - 1;
      } else {
        put_in_bin(run_start, run_size);
      }
      run_start = nullptr;
      run_size = 0;
      run_blocks = 0;
    };

    while (pos < chunk->wilderness()) {
      const std::size_t sz = layout_.read_size(pos);
      if (layout_.read_free(pos)) {
        unbin(pos, sz);
        if (run_start == nullptr) run_start = pos;
        run_size += sz;
        ++run_blocks;
        pos += sz;
        if (pos == chunk->wilderness()) flush(/*into_wilderness=*/true);
      } else {
        flush(false);
        pos += sz;
      }
    }
    flush(false);
  }
  stats_.coalesces += merges;
  return merges;
}

void LeaAllocator::deallocate(void* ptr) {
  if (ptr == nullptr) return;
  ChunkHeader* chunk = own_chunk(ptr);
  if (chunk == nullptr) die("deallocate: pointer not owned by this manager");
  std::byte* block = layout_.block_of(static_cast<std::byte*>(ptr));
  if (chunk->owner == nullptr) {  // mmap path
    if (block != chunk->data()) die("deallocate: corrupt mmap block");
    note_free(layout_.live_payload(chunk->data_bytes()));
    arena_->release(chunk->base());
    ++stats_.chunks_released;
    return;
  }
  const std::size_t size = layout_.read_size(block);
  if (size == 0 || layout_.read_free(block)) {
    die("deallocate: double free or corrupt header");
  }
  note_free(layout_.live_payload(size));
  --chunk->live_blocks;
  // Deferred coalescing: straight to the bin, unmerged — the "huge
  // free-lists of unused blocks (in case they can be reused later)".
  put_in_bin(block, size);
}

std::size_t LeaAllocator::usable_size(const void* ptr) const {
  const ChunkHeader* chunk = own_chunk(ptr);
  if (chunk == nullptr) die("usable_size: pointer not owned");
  const std::byte* block = layout_.block_of(ptr);
  if (chunk->owner == nullptr) {
    return layout_.live_payload(chunk->data_bytes());
  }
  return layout_.live_payload(layout_.read_size(block));
}

std::uint64_t LeaAllocator::work_steps() const {
  std::uint64_t steps = large_bin_->scan_steps();
  for (const auto& bin : small_bins_) steps += bin->scan_steps();
  return steps;
}

}  // namespace dmm::managers
