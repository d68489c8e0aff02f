#include "dmm/alloc/pool.h"

#include <cstdio>
#include <cstdlib>

#include "dmm/alloc/config_rules.h"

namespace dmm::alloc {

namespace detail {
void fatal(const char* who, const char* what) {
  std::fprintf(stderr, "dmm::alloc::%s fatal: %s\n", who, what);
  std::abort();
}
}  // namespace detail

PolicyLeaves PolicyLeaves::from(const DmmConfig& raw) {
  const DmmConfig cfg = canonical(raw);
  // canonical() folds each A5 grant into its schedule: a mechanism is on
  // iff its E2/D2 leaf says when.
  PolicyLeaves l{};
  l.block_structure = cfg.block_structure;
  l.layout = BlockLayout::from(cfg);
  l.class_rounding = cfg.block_sizes == BlockSizes::kFixedClasses;
  l.division = cfg.pool_division;
  l.array_routing = cfg.pool_structure == PoolStructure::kArray;
  l.dynamic_classes = cfg.pool_count == PoolCount::kDynamic;
  l.static_many = cfg.pool_count == PoolCount::kStaticMany;
  l.fixed_class_pools = pool_blocks_fixed(cfg);
  l.big_path = cfg.adaptivity != PoolAdaptivity::kStaticPreallocated;
  l.shrink = cfg.adaptivity == PoolAdaptivity::kGrowAndShrink;
  l.fit = cfg.fit;
  l.order = cfg.order;
  l.split = cfg.split_when != SplitWhen::kNever;
  l.split_deferred = cfg.split_when == SplitWhen::kDeferred;
  l.split_bounded = cfg.split_sizes == SplitSizes::kBoundedByClass;
  l.coalesce_always = cfg.coalesce_when == CoalesceWhen::kAlways;
  l.coalesce_deferred = cfg.coalesce_when == CoalesceWhen::kDeferred;
  l.coalesce_bounded = cfg.coalesce_sizes == CoalesceSizes::kBoundedByClass;
  l.min_block = l.layout.min_block_size(link_bytes(cfg.block_structure));
  l.deferred_split_min = cfg.deferred_split_min;
  l.class_cap = std::size_t{1} << cfg.max_class_log2;
  l.chunk_bytes = cfg.chunk_bytes;
  l.big_request_bytes = cfg.big_request_bytes;
  l.static_pool_bytes = cfg.static_pool_bytes;
  return l;
}

PoolBase::PoolBase(const PolicyLeaves& leaves, std::size_t fixed_block_size,
                   sysmem::SystemArena& arena, const void* owner,
                   AllocatorStats& stats)
    : leaves_(leaves),
      fixed_size_(fixed_block_size),
      arena_(arena),
      owner_(owner),
      stats_(stats) {
  if (fixed_size_ != 0 && fixed_size_ < leaves_.min_block) {
    detail::fatal("Pool",
                  "fixed block size below the minimum viable free-block size");
  }
}

PoolBase::~PoolBase() {
  ChunkHeader* c = chunks_;
  while (c != nullptr) {
    ChunkHeader* next = c->next;
    arena_.release(c->base());
    c = next;
  }
}

ChunkHeader* PoolBase::grow_reserve(std::size_t data_bytes) {
  if (!may_grow_) return nullptr;
  std::size_t total = sizeof(ChunkHeader) + data_bytes;
  if (total < leaves_.chunk_bytes) total = leaves_.chunk_bytes;
  std::size_t granted = 0;
  std::byte* base = arena_.request(total, owner_, &granted);
  if (base == nullptr) return nullptr;  // arena budget exhausted
  auto* fresh = reinterpret_cast<ChunkHeader*>(base);
  fresh->init(granted, this);
  fresh->next = chunks_;
  if (chunks_ != nullptr) chunks_->prev = fresh;
  chunks_ = fresh;
  ++chunk_count_;
  carve_chunk_ = fresh;
  ++stats_.chunks_grown;
  return fresh;
}

void PoolBase::release_chunk(ChunkHeader* chunk) {
  if (carve_chunk_ == chunk) carve_chunk_ = nullptr;
  if (chunk->prev != nullptr) chunk->prev->next = chunk->next;
  if (chunk->next != nullptr) chunk->next->prev = chunk->prev;
  if (chunks_ == chunk) chunks_ = chunk->next;
  --chunk_count_;
  ++stats_.chunks_released;
  arena_.release(chunk->base());
}

}  // namespace dmm::alloc
