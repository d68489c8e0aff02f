#include "dmm/managers/region.h"

#include <cstdio>
#include <cstdlib>

#include "dmm/alloc/size_class.h"

namespace dmm::managers {

using alloc::ChunkHeader;

namespace {
[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "dmm::managers::Region fatal: %s\n", what);
  std::abort();
}
}  // namespace

RegionAllocator::RegionAllocator(sysmem::SystemArena& arena,
                                 std::size_t region_chunk_bytes)
    : Allocator(arena), region_chunk_bytes_(region_chunk_bytes) {}

RegionAllocator::~RegionAllocator() { arena_->release_all(owner_tag()); }

RegionAllocator::Region& RegionAllocator::region_for(std::size_t block_size) {
  auto it = region_slot_.find(block_size);
  if (it != region_slot_.end()) return *regions_[it->second];
  regions_.push_back(std::make_unique<Region>());
  regions_.back()->block_size = block_size;
  region_slot_.emplace(block_size, regions_.size() - 1);
  return *regions_.back();
}

std::byte* RegionAllocator::carve(Region& region) {
  if (region.carve_chunk == nullptr ||
      region.carve_chunk->wilderness_bytes() < region.block_size) {
    region.carve_chunk = nullptr;
    for (ChunkHeader* c = region.chunks; c != nullptr; c = c->next) {
      if (c->wilderness_bytes() >= region.block_size) {
        region.carve_chunk = c;
        break;
      }
    }
  }
  if (region.carve_chunk == nullptr) {
    std::size_t total = sizeof(ChunkHeader) + region.block_size;
    if (total < region_chunk_bytes_) total = region_chunk_bytes_;
    std::size_t granted = 0;
    std::byte* base = arena_->request(total, owner_tag(), &granted);
    if (base == nullptr) return nullptr;
    auto* chunk = reinterpret_cast<ChunkHeader*>(base);
    chunk->init(granted, nullptr);
    chunk->next = region.chunks;
    if (region.chunks != nullptr) region.chunks->prev = chunk;
    region.chunks = chunk;
    region.carve_chunk = chunk;
    chunk_region_.emplace(chunk, region_slot_.at(region.block_size));
    ++stats_.chunks_grown;
  }
  std::byte* block = region.carve_chunk->wilderness();
  region.carve_chunk->bump += region.block_size;
  return block;
}

std::size_t RegionAllocator::quantize(std::size_t request) {
  // Fixed region block sizes: 64-byte steps for small blocks, 4 KiB steps
  // for large ones — the coarse granularity of embedded-OS partitions.
  if (request < sizeof(FreeNode)) request = sizeof(FreeNode);
  const std::size_t step = request >= 4096 ? 4096 : 64;
  return alloc::align_up(request, step);
}

void* RegionAllocator::allocate(std::size_t bytes) {
  if (reject_oversized(bytes)) return nullptr;
  const std::size_t request = bytes == 0 ? 1 : bytes;
  // Blocks carry no tags: the region's fixed size IS the block size.
  const std::size_t block_size = quantize(request);
  Region& region = region_for(block_size);
  std::byte* block = nullptr;
  if (region.free_list != nullptr) {
    block = reinterpret_cast<std::byte*>(region.free_list);
    region.free_list = region.free_list->next;
    --region.free_count;
  } else {
    block = carve(region);
    if (block == nullptr) {
      ++stats_.failed_allocs;
      return nullptr;
    }
  }
  ++region.live;
  note_alloc(block_size);
  return block;
}

void RegionAllocator::deallocate(void* ptr) {
  if (ptr == nullptr) return;
  ChunkHeader* chunk = own_chunk(ptr);
  if (chunk == nullptr) die("deallocate: pointer not owned by this manager");
  auto slot = chunk_region_.find(chunk);
  if (slot == chunk_region_.end()) die("deallocate: chunk without a region");
  Region& region = *regions_[slot->second];
  auto* node = reinterpret_cast<FreeNode*>(ptr);
  node->next = region.free_list;
  region.free_list = node;
  ++region.free_count;
  --region.live;
  note_free(region.block_size);
}

std::size_t RegionAllocator::destroy_empty_regions() {
  std::size_t destroyed = 0;
  for (auto& region : regions_) {
    if (region->live == 0 && region->chunks != nullptr) {
      destroy_region(*region);
      ++destroyed;
    }
  }
  return destroyed;
}

void RegionAllocator::destroy_region(Region& region) {
  // Entirely empty: region-destroy returns all chunks to the system.
  ChunkHeader* c = region.chunks;
  while (c != nullptr) {
    ChunkHeader* next = c->next;
    chunk_region_.erase(c);
    arena_->release(c->base());
    ++stats_.chunks_released;
    c = next;
  }
  region.chunks = nullptr;
  region.carve_chunk = nullptr;
  region.free_list = nullptr;
  region.free_count = 0;
}

std::size_t RegionAllocator::usable_size(const void* ptr) const {
  const ChunkHeader* chunk = own_chunk(ptr);
  if (chunk == nullptr) die("usable_size: pointer not owned");
  return regions_[chunk_region_.at(chunk)]->block_size;
}

}  // namespace dmm::managers
