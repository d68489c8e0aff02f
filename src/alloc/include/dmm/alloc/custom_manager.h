#ifndef DMM_ALLOC_CUSTOM_MANAGER_H
#define DMM_ALLOC_CUSTOM_MANAGER_H

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dmm/alloc/allocator.h"
#include "dmm/alloc/block_layout.h"
#include "dmm/alloc/chunk.h"
#include "dmm/alloc/config.h"
#include "dmm/alloc/pool.h"
#include "dmm/alloc/shape.h"

namespace dmm::alloc {

/// The paper's *atomic DM manager*: a working allocator synthesised from a
/// full decision vector (one leaf per tree of the Fig. 1 search space).
///
/// This is the executable semantics of the search space — the exploration
/// engine builds one CustomManager per candidate vector and replays the
/// profiled allocation trace through it to score the vector's footprint.
///
/// In the policy-core / runtime-front split (see policy_core.h) this class
/// is the *policy core*: deliberately single-threaded and bit-deterministic.
/// Ship it behind runtime::DesignedAllocator (src/runtime) when live
/// concurrent malloc/free traffic, an OOM policy, or telemetry is needed;
/// use it bare for replay and scoring.
///
/// The constructor aborts on decision vectors with *hard* interdependency
/// violations (see config_rules.h); validate first with is_valid().
///
/// Requests >= cfg.big_request_bytes take a dedicated-chunk path (the
/// standard mmap-threshold engineering floor): one chunk per block,
/// released straight back to the arena when pool adaptivity allows, else
/// cached for reuse.
class CustomManager : public Allocator {
 public:
  /// @param strict_accounting  track per-pointer requested sizes (exact
  ///        live-byte accounting, double-free detection).  Disable only in
  ///        timing benchmarks.
  CustomManager(sysmem::SystemArena& arena, const DmmConfig& cfg,
                std::string name = "custom", bool strict_accounting = true);
  ~CustomManager() override;

  [[nodiscard]] void* allocate(std::size_t bytes) override;
  void deallocate(void* ptr) override;
  [[nodiscard]] std::size_t usable_size(const void* ptr) const override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] const DmmConfig& config() const { return cfg_; }
  [[nodiscard]] const BlockLayout& layout() const { return leaves_.layout; }
  /// The Pool/FreeIndex instantiation this core runs on (see shape.h).
  [[nodiscard]] ShapeId shape() const { return shape_; }

  /// Total block size (header included) that a payload request of
  /// @p payload bytes occupies under this configuration.
  [[nodiscard]] std::size_t block_size_for_request(std::size_t payload) const;

  /// Architecture-neutral work measure: free-structure traversal steps plus
  /// pool-routing steps.  Used by the performance benches alongside wall
  /// time.
  [[nodiscard]] std::uint64_t work_steps() const;

  [[nodiscard]] std::size_t pool_count() const { return pools_.size(); }

  /// Deep consistency check over every pool (tests only; O(n^2)).
  void check_integrity() const;

  /// Where the footprint goes — the paper's Sec. 4.1 factors of influence:
  /// organization overhead (fields + assisting structures) versus
  /// fragmentation waste, measured live from the manager's state.
  struct FootprintBreakdown {
    std::size_t footprint = 0;        ///< bytes held from the arena
    std::size_t live_payload = 0;     ///< application demand
    std::size_t header_overhead = 0;  ///< tag fields of live blocks (A3/A4)
    std::size_t chunk_headers = 0;    ///< pool assisting structures (B)
    std::size_t free_cached = 0;      ///< free blocks threaded in indexes
    std::size_t wilderness = 0;       ///< uncarved chunk tails
    std::size_t big_cache = 0;        ///< cached dedicated chunks
    /// Internal fragmentation: allocated capacity beyond the requests
    /// (rounding, unsplit remainders).  Derived as the residue.
    [[nodiscard]] std::size_t internal_fragmentation() const {
      const std::size_t accounted = live_payload + header_overhead +
                                    chunk_headers + free_cached +
                                    wilderness + big_cache;
      return footprint > accounted ? footprint - accounted : 0;
    }
  };

  /// Snapshot of the current footprint decomposition.  Requires strict
  /// accounting (live_payload must be exact).
  [[nodiscard]] FootprintBreakdown breakdown() const;

 protected:
  /// Builds the vector on the DynamicShape instantiation whatever its
  /// shape: the reference the shape-specialised instantiations are
  /// differentially tested against.
  struct DynamicShapeOnly {};
  CustomManager(sysmem::SystemArena& arena, const DmmConfig& cfg,
                std::string name, bool strict_accounting, DynamicShapeOnly);

 private:
  struct PoolEntry {
    std::size_t key;  ///< class index or exact block size, per division
    std::unique_ptr<PoolBase> pool;
  };
  struct Route {
    PoolBase* pool;
    std::size_t block_size;
  };

  CustomManager(sysmem::SystemArena& arena, const DmmConfig& cfg,
                std::string name, bool strict_accounting, ShapeId shape);

  template <class S>
  [[nodiscard, gnu::always_inline]] void* allocate_as(std::size_t bytes);
  template <class S>
  [[gnu::always_inline]] void deallocate_as(void* ptr);
  template <class S>
  [[nodiscard, gnu::always_inline]] std::size_t block_size_for(
      std::size_t payload) const;
  template <class S>
  [[nodiscard, gnu::always_inline]] Route route(std::size_t request);
  template <class S>
  PoolBase* make_pool(std::size_t key, std::size_t fixed_block_size);
  [[nodiscard]] std::size_t class_pool_block_size(unsigned idx) const;
  [[nodiscard, gnu::always_inline]] PoolBase* find_pool(std::size_t key);

  [[nodiscard]] void* big_allocate(std::size_t payload);
  void big_deallocate(ChunkHeader* chunk, void* ptr);

  const DmmConfig cfg_;
  /// The canonical vector's leaves, hoisted once (the pools copy them).
  const PolicyLeaves leaves_;
  const ShapeId shape_;
  std::string name_;
  bool strict_;

  std::vector<PoolEntry> pools_;
  /// Array routing (B2) for per-class division: class index -> pools_ slot.
  std::vector<int> class_slot_;
  /// Array routing (B2) for per-exact division: block size -> pools_ slot.
  std::unordered_map<std::size_t, std::size_t> exact_slot_;
  /// Dedicated big chunks currently cached for reuse (grow-only mode).
  std::vector<ChunkHeader*> big_cache_;
  std::size_t big_cache_bytes_ = 0;
  /// Dedicated big chunks currently holding a live block.
  std::size_t live_dedicated_ = 0;

  /// strict accounting: payload pointer -> requested bytes.
  std::unordered_map<const void*, std::size_t> requested_;
  mutable std::uint64_t routing_steps_ = 0;
};

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_CUSTOM_MANAGER_H
