#include "dmm/alloc/custom_manager.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "dmm/alloc/config_rules.h"
#include "dmm/alloc/size_class.h"

namespace dmm::alloc {

namespace {
[[noreturn]] void die(const char* what) {
  detail::fatal("CustomManager", what);
}

template <class S>
Pool<S>& as(PoolBase* pool) {
  return static_cast<Pool<S>&>(*pool);
}
template <class S>
const Pool<S>& as(const PoolBase* pool) {
  return static_cast<const Pool<S>&>(*pool);
}
}  // namespace

CustomManager::CustomManager(sysmem::SystemArena& arena, const DmmConfig& cfg,
                             std::string name, bool strict_accounting)
    : CustomManager(arena, cfg, std::move(name), strict_accounting,
                    shape_id(cfg)) {}

CustomManager::CustomManager(sysmem::SystemArena& arena, const DmmConfig& cfg,
                             std::string name, bool strict_accounting,
                             DynamicShapeOnly)
    : CustomManager(arena, cfg, std::move(name), strict_accounting,
                    ShapeId::kDynamic) {}

CustomManager::CustomManager(sysmem::SystemArena& arena, const DmmConfig& cfg,
                             std::string name, bool strict_accounting,
                             ShapeId shape)
    : Allocator(arena),
      cfg_(cfg),
      leaves_(PolicyLeaves::from(cfg)),
      shape_(shape),
      name_(std::move(name)),
      strict_(strict_accounting) {
  if (auto why = unsupported_reason(cfg)) {
    std::fprintf(stderr, "CustomManager: unsupported decision vector: %s\n",
                 why->c_str());
    std::abort();
  }
  with_shape(shape_, [&]<class S>() {
    if (leaves_.division == PoolDivision::kPoolPerSizeClass) {
      class_slot_.assign(SizeClass::kCount, -1);
      if (leaves_.static_many) {
        // Pre-create the full class roster (pools only; chunks on demand).
        for (unsigned i = 0; i < SizeClass::kCount; ++i) {
          make_pool<S>(i, class_pool_block_size(i));
        }
      }
    }
    if (leaves_.division == PoolDivision::kSinglePool) {
      PoolBase* p = make_pool<S>(0, 0);
      if (!leaves_.big_path) {
        // One up-front grant; afterwards the pool may never grow again.
        if (p->grow_reserve(leaves_.static_pool_bytes) == nullptr) {
          die("static preallocation exceeds the arena budget");
        }
        p->stop_growing();
      }
    }
  });
}

CustomManager::~CustomManager() {
  // Pools release their chunks in their destructors; dedicated chunks and
  // cached big chunks are ours to return.
  pools_.clear();
  for (ChunkHeader* c : big_cache_) arena_->release(c->base());
  // Any still-live dedicated chunk is an application leak; release it so
  // the arena tripwire reports it deterministically in tests via
  // live_chunks() before destruction instead of aborting here.
}

// ---------------------------------------------------------------------------
// pools and routing
// ---------------------------------------------------------------------------

template <class S>
PoolBase* CustomManager::make_pool(std::size_t key,
                                   std::size_t fixed_block_size) {
  pools_.push_back({key, std::make_unique<Pool<S>>(leaves_, fixed_block_size,
                                                   *arena_, owner_tag(),
                                                   stats_)});
  const std::size_t slot = pools_.size() - 1;
  if (leaves_.array_routing &&
      leaves_.division == PoolDivision::kPoolPerSizeClass) {
    class_slot_[key] = static_cast<int>(slot);
  } else if (leaves_.array_routing &&
             leaves_.division == PoolDivision::kPoolPerExactSize) {
    exact_slot_[key] = slot;
  }
  return pools_.back().pool.get();
}

inline PoolBase* CustomManager::find_pool(std::size_t key) {
  if (leaves_.array_routing) {
    if (leaves_.division == PoolDivision::kPoolPerSizeClass) {
      const int slot = class_slot_[key];
      return slot < 0 ? nullptr
                      : pools_[static_cast<std::size_t>(slot)].pool.get();
    }
    if (leaves_.division == PoolDivision::kPoolPerExactSize) {
      auto it = exact_slot_.find(key);
      return it == exact_slot_.end() ? nullptr : pools_[it->second].pool.get();
    }
    return pools_.empty() ? nullptr : pools_[0].pool.get();
  }
  // B2 = linked list: linear scan, charged to the work counter.
  for (PoolEntry& e : pools_) {
    ++routing_steps_;
    if (e.key == key) return e.pool.get();
  }
  return nullptr;
}

template <class S>
inline std::size_t CustomManager::block_size_for(
    std::size_t payload) const {
  if (payload == 0) payload = 1;
  std::size_t p = align_up(payload);
  if (leaves_.class_rounding) p = SizeClass::round_to_class(p);
  const S shape(leaves_.block_structure, leaves_.layout);
  return shape.layout().block_size_for(p, link_bytes(shape.structure()));
}

std::size_t CustomManager::block_size_for_request(std::size_t payload) const {
  return with_shape(shape_,
                    [&]<class S>() { return block_size_for<S>(payload); });
}

std::size_t CustomManager::class_pool_block_size(unsigned idx) const {
  // Fixed class pools hold blocks sized for the class's payload ceiling;
  // variable class pools (A2 = many) hold the class's payload range.
  return leaves_.fixed_class_pools
             ? leaves_.layout.block_size_for(
                   SizeClass::size_of(idx), link_bytes(leaves_.block_structure))
             : 0;
}

template <class S>
inline CustomManager::Route CustomManager::route(std::size_t request) {
  switch (leaves_.division) {
    case PoolDivision::kSinglePool:
      return {find_pool(0), block_size_for<S>(request)};
    case PoolDivision::kPoolPerSizeClass: {
      const unsigned idx = SizeClass::index_for(align_up(request));
      PoolBase* p = find_pool(idx);
      if (p == nullptr && leaves_.dynamic_classes) {
        p = make_pool<S>(idx, class_pool_block_size(idx));
      }
      const std::size_t bs = (p != nullptr && p->is_fixed())
                                 ? p->fixed_block_size()
                                 : block_size_for<S>(request);
      return {p, bs};
    }
    case PoolDivision::kPoolPerExactSize: {
      const std::size_t bs = block_size_for<S>(request);
      PoolBase* p = find_pool(bs);
      if (p == nullptr) p = make_pool<S>(bs, bs);
      return {p, bs};
    }
  }
  return {nullptr, 0};
}

// ---------------------------------------------------------------------------
// the malloc/free surface: one switch to the shape's inlined path
// ---------------------------------------------------------------------------

void* CustomManager::allocate(std::size_t bytes) {
  return with_shape(shape_,
                    [&]<class S>() { return allocate_as<S>(bytes); });
}

void CustomManager::deallocate(void* ptr) {
  with_shape(shape_, [&]<class S>() { deallocate_as<S>(ptr); });
}

template <class S>
inline void* CustomManager::allocate_as(std::size_t bytes) {
  if (reject_oversized(bytes)) return nullptr;
  const std::size_t request = bytes == 0 ? 1 : bytes;
  if (leaves_.big_path && request >= leaves_.big_request_bytes) {
    return big_allocate(request);
  }
  const Route r = route<S>(request);
  if (r.pool == nullptr) {
    ++stats_.failed_allocs;
    return nullptr;
  }
  Pool<S>& pool = as<S>(r.pool);
  std::byte* block = pool.allocate_block(r.block_size);
  if (block == nullptr) {
    ++stats_.failed_allocs;
    return nullptr;
  }
  const S shape(leaves_.block_structure, leaves_.layout);
  void* payload = shape.layout().payload(block);
  // Non-strict accounting books block capacity (the pool may have handed
  // out a larger, unsplit block); deallocate mirrors this exactly.
  note_alloc(strict_ ? request
                     : shape.layout().live_payload(pool.block_size_of(block)));
  if (strict_) {
    auto [it, inserted] = requested_.emplace(payload, request);
    if (!inserted) die("allocator handed out a live pointer twice");
  }
  return payload;
}

template <class S>
inline void CustomManager::deallocate_as(void* ptr) {
  if (ptr == nullptr) return;
  ChunkHeader* chunk = own_chunk(ptr);
  if (chunk == nullptr) die("deallocate: pointer not owned by this manager");
  std::size_t request_hint = 0;
  if (strict_) {
    auto it = requested_.find(ptr);
    if (it == requested_.end()) die("deallocate: double free or wild free");
    request_hint = it->second;
    requested_.erase(it);
  }
  const S shape(leaves_.block_structure, leaves_.layout);
  if (chunk->owner == nullptr) {
    const std::size_t payload =
        strict_ ? request_hint
                : shape.layout().live_payload(chunk->data_bytes());
    note_free(payload);
    big_deallocate(chunk, ptr);
    return;
  }
  Pool<S>& pool = as<S>(chunk->owner);
  std::byte* block = shape.layout().block_of(ptr);
  const std::size_t block_size = pool.block_size_of(block);
  note_free(strict_ ? request_hint : shape.layout().live_payload(block_size));
  pool.free_block(block, block_size, chunk);
}

// ---------------------------------------------------------------------------
// dedicated-chunk path for big requests
// ---------------------------------------------------------------------------

void* CustomManager::big_allocate(std::size_t payload) {
  const BlockLayout& layout = leaves_.layout;
  const std::size_t need = layout.block_size_for(
      align_up(payload), link_bytes(leaves_.block_structure));
  ChunkHeader* chunk = nullptr;
  // Reuse a cached dedicated chunk when the manager never shrinks.
  for (std::size_t i = 0; i < big_cache_.size(); ++i) {
    ++routing_steps_;
    ChunkHeader* c = big_cache_[i];
    if (c->data_bytes() >= need) {
      chunk = c;
      big_cache_[i] = big_cache_.back();
      big_cache_.pop_back();
      big_cache_bytes_ -= c->chunk_size;
      break;
    }
  }
  if (chunk == nullptr) {
    std::size_t granted = 0;
    std::byte* base =
        arena_->request(sizeof(ChunkHeader) + need, owner_tag(), &granted);
    if (base == nullptr) {
      ++stats_.failed_allocs;
      return nullptr;
    }
    chunk = reinterpret_cast<ChunkHeader*>(base);
    chunk->init(granted, nullptr);
    ++stats_.chunks_grown;
  }
  ++live_dedicated_;
  chunk->live_blocks = 1;
  chunk->bump = chunk->chunk_size;  // the whole data area is the block
  std::byte* block = chunk->data();
  layout.write_header(block, chunk->data_bytes(), /*free=*/false);
  void* p = layout.payload(block);
  note_alloc(strict_ ? payload : layout.live_payload(chunk->data_bytes()));
  if (strict_) {
    auto [it, inserted] = requested_.emplace(p, payload);
    if (!inserted) die("allocator handed out a live pointer twice");
  }
  return p;
}

void CustomManager::big_deallocate(ChunkHeader* chunk, void* ptr) {
  if (leaves_.layout.block_of(ptr) != chunk->data() ||
      chunk->live_blocks != 1) {
    die("big_deallocate: pointer does not match its dedicated chunk");
  }
  chunk->live_blocks = 0;
  --live_dedicated_;
  // Shrink decision point: B4 decides between releasing and caching the
  // now-empty dedicated chunk.
  if (leaves_.shrink) {
    ++stats_.chunks_released;
    arena_->release(chunk->base());
  } else {
    big_cache_.push_back(chunk);
    big_cache_bytes_ += chunk->chunk_size;
  }
}

// ---------------------------------------------------------------------------

std::size_t CustomManager::usable_size(const void* ptr) const {
  const ChunkHeader* chunk = own_chunk(ptr);
  if (chunk == nullptr) die("usable_size: pointer not owned by this manager");
  const BlockLayout& layout = leaves_.layout;
  if (chunk->owner == nullptr) {
    return layout.live_payload(chunk->data_bytes());
  }
  const std::byte* block = layout.block_of(ptr);
  return layout.live_payload(with_shape(shape_, [&]<class S>() {
    return as<S>(chunk->owner).block_size_of(block);
  }));
}

std::uint64_t CustomManager::work_steps() const {
  return with_shape(shape_, [&]<class S>() {
    std::uint64_t steps = routing_steps_;
    for (const PoolEntry& e : pools_) {
      steps += as<S>(e.pool.get()).index().scan_steps();
    }
    return steps;
  });
}

CustomManager::FootprintBreakdown CustomManager::breakdown() const {
  FootprintBreakdown b;
  b.footprint = arena_->footprint();
  b.live_payload = stats_.live_bytes;
  b.header_overhead = stats_.live_blocks * leaves_.layout.header_bytes();
  with_shape(shape_, [&]<class S>() {
    for (const PoolEntry& e : pools_) {
      b.free_cached += as<S>(e.pool.get()).index().bytes();
      for (ChunkHeader* c = e.pool->chunks(); c != nullptr; c = c->next) {
        b.chunk_headers += sizeof(ChunkHeader);
        b.wilderness += c->wilderness_bytes();
      }
    }
  });
  // Dedicated live chunks contribute their header too.
  b.chunk_headers += live_dedicated_ * sizeof(ChunkHeader);
  b.big_cache = big_cache_bytes_;
  // Page-rounding slack of the arena is attributed to the wilderness of
  // nothing in particular; fold it into internal fragmentation (residue).
  return b;
}

void CustomManager::check_integrity() const {
  with_shape(shape_, [&]<class S>() {
    for (const PoolEntry& e : pools_) as<S>(e.pool.get()).check_integrity();
  });
  if (strict_ && requested_.size() != stats_.live_blocks) {
    die("integrity: live block count diverged from pointer registry");
  }
}

}  // namespace dmm::alloc
