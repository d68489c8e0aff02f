#include "dmm/managers/obstack.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "dmm/alloc/size_class.h"

namespace dmm::managers {

using alloc::ChunkHeader;

namespace {
[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "dmm::managers::Obstack fatal: %s\n", what);
  std::abort();
}
}  // namespace

ObstackAllocator::ObstackAllocator(sysmem::SystemArena& arena,
                                   std::size_t chunk_bytes)
    : Allocator(arena), chunk_bytes_(chunk_bytes) {}

ObstackAllocator::~ObstackAllocator() { arena_->release_all(owner_tag()); }

void* ObstackAllocator::allocate(std::size_t bytes) {
  if (reject_oversized(bytes)) return nullptr;
  const std::size_t request = bytes == 0 ? 1 : bytes;
  const std::size_t object_size = alloc::align_up(kHeader + request);
  ChunkHeader* chunk = chunks_;
  if (chunk == nullptr || chunk->wilderness_bytes() < object_size) {
    // Real obstacks move the growing object to a fresh chunk and abandon
    // the old tail; the tail stays wasted until its chunk dies.
    std::size_t total = sizeof(ChunkHeader) + object_size;
    if (total < chunk_bytes_) total = chunk_bytes_;
    std::size_t granted = 0;
    std::byte* base = arena_->request(total, owner_tag(), &granted);
    if (base == nullptr) {
      ++stats_.failed_allocs;
      return nullptr;
    }
    chunk = reinterpret_cast<ChunkHeader*>(base);
    chunk->init(granted, nullptr);
    chunk->next = chunks_;
    if (chunks_ != nullptr) chunks_->prev = chunk;
    chunks_ = chunk;
    ++stats_.chunks_grown;
  }
  std::byte* obj = chunk->wilderness();
  chunk->bump += object_size;
  ++chunk->live_blocks;
  *reinterpret_cast<std::size_t*>(obj) = object_size;  // alive: dead bit 0
  note_alloc(object_size - kHeader);
  return obj + kHeader;
}

void ObstackAllocator::pop_dead_tail(ChunkHeader* chunk) {
  // Objects tile [data, bump); retreat the bump over the trailing run of
  // tombstoned objects (single walk, then one retreat).
  std::vector<std::pair<std::byte*, std::size_t>> objects;
  std::byte* pos = chunk->data();
  while (pos < chunk->wilderness()) {
    const std::size_t word = header_of(pos);
    const std::size_t size = word & ~kDeadBit;
    if (size == 0 || pos + size > chunk->wilderness()) {
      die("pop_dead_tail: corrupt object grid");
    }
    objects.emplace_back(pos, word);
    pos += size;
  }
  while (!objects.empty() && (objects.back().second & kDeadBit) != 0) {
    const std::size_t size = objects.back().second & ~kDeadBit;
    chunk->bump -= size;
    tombstone_bytes_ -= size;
    objects.pop_back();
  }
}

void ObstackAllocator::release_if_empty(ChunkHeader* chunk) {
  if (chunk->bump != sizeof(ChunkHeader)) return;
  if (chunk->prev != nullptr) chunk->prev->next = chunk->next;
  if (chunk->next != nullptr) chunk->next->prev = chunk->prev;
  if (chunks_ == chunk) chunks_ = chunk->next;
  arena_->release(chunk->base());
  ++stats_.chunks_released;
}

void ObstackAllocator::deallocate(void* ptr) {
  if (ptr == nullptr) return;
  ChunkHeader* chunk = own_chunk(ptr);
  if (chunk == nullptr) die("deallocate: pointer not owned by this manager");
  std::byte* obj = static_cast<std::byte*>(ptr) - kHeader;
  std::size_t& word = *reinterpret_cast<std::size_t*>(obj);
  if ((word & kDeadBit) != 0) die("deallocate: double free");
  const std::size_t size = word & ~kDeadBit;
  word |= kDeadBit;
  tombstone_bytes_ += size;
  --chunk->live_blocks;
  note_free(size - kHeader);
  pop_dead_tail(chunk);
  release_if_empty(chunk);
}

std::size_t ObstackAllocator::usable_size(const void* ptr) const {
  const std::byte* obj = static_cast<const std::byte*>(ptr) - kHeader;
  return (header_of(obj) & ~kDeadBit) - kHeader;
}

}  // namespace dmm::managers
