#ifndef DMM_ALLOC_CONFIG_H
#define DMM_ALLOC_CONFIG_H

#include <cstddef>
#include <string>

namespace dmm::alloc {

// ---------------------------------------------------------------------------
// The decision trees of the paper's search space (Fig. 1), one enum per tree.
// Leaves cited verbatim in the paper text are marked [paper]; the rest are
// reconstructed from Wilson et al. '95, which Fig. 1 is built from.
// Figure-1 reconstruction note: the paper names trees A1-A5, B1, C1, D1-D2
// and E1-E2 in its text; B2-B4 and C2 complete the pool and fit
// categories from the same taxonomy.
// ---------------------------------------------------------------------------

/// Tree A1 — Block structure: the dynamic data type (DDT) that organises
/// free blocks inside a pool.
enum class BlockStructure {
  kSinglyLinkedList,   ///< one in-payload link
  kDoublyLinkedList,   ///< [paper: "double linked list"] O(1) arbitrary removal
  kSinglySortedBySize, ///< singly linked, kept sorted by block size
  kDoublySortedBySize, ///< doubly linked, kept sorted by block size
  kSizeBinaryTree,     ///< unbalanced BST keyed by size (Cartesian-tree style)
};

/// Tree A2 — Block sizes: is the set of block sizes in the system fixed
/// (requests rounded up to predetermined classes) or free-form?
enum class BlockSizes {
  kFixedClasses,  ///< predetermined size classes (Kingsley-style)
  kMany,          ///< [paper: "many block sizes"] sizes follow the requests
};

/// Tree A3 — Block tags: boundary fields physically present in each block.
enum class BlockTags {
  kNone,          ///< [paper: "none"] no per-block field at all
  kHeader,        ///< [paper: "header"] one word before the payload
  kFooter,        ///< one word after the payload
  kHeaderFooter,  ///< boundary tags on both ends (enables backward coalesce)
};

/// Tree A4 — Block recorded info: what the tag fields store.
enum class RecordedInfo {
  kNone,
  kSize,           ///< block size only
  kStatus,         ///< free/used bit only
  kSizeAndStatus,  ///< [paper: "size and status"]
};

/// Tree A5 — Flexible block size manager: which resizing mechanisms exist.
enum class FlexibleBlockSize {
  kNone,
  kSplitOnly,
  kCoalesceOnly,
  kSplitAndCoalesce,  ///< [paper: "split and coalesce"]
};

/// Tree B1 — Pool division based on size.
enum class PoolDivision {
  kSinglePool,        ///< [paper: "single pool"] all sizes share one pool
  kPoolPerSizeClass,  ///< one pool per logarithmic size class
  kPoolPerExactSize,  ///< one pool per distinct (rounded) request size
};

/// Tree B2 — Pool structure: DDT organising the pools themselves.
enum class PoolStructure {
  kArray,       ///< direct-indexed table of pools
  kLinkedList,  ///< pools chained, linear lookup
};

/// Tree B3 — Pool count policy.
enum class PoolCount {
  kOne,         ///< exactly one pool, ever
  kStaticMany,  ///< fixed roster of pools decided at design time
  kDynamic,     ///< pools created on demand as new sizes appear
};

/// Tree B4 — Pool memory adaptivity: the pool set's contract with the OS.
/// `kGrowAndShrink` is what lets a manager hand coalesced chunks back
/// ("returned back to the system for other applications", Sec. 5).
enum class PoolAdaptivity {
  kStaticPreallocated,  ///< one up-front grant, never grows or returns
  kGrowOnly,            ///< requests chunks on demand, never returns them
  kGrowAndShrink,       ///< also releases empty chunks back to the arena
};

/// Tree C1 — Fit algorithms for picking a free block.
enum class FitAlgorithm {
  kFirstFit,
  kNextFit,   ///< first fit resuming from the last allocation point
  kBestFit,
  kWorstFit,
  kExactFit,  ///< [paper: "exact fit"] exact size match, else smallest larger
};

/// Tree C2 — Free-list ordering discipline (position of freed blocks).
enum class FreeListOrder {
  kLIFO,
  kFIFO,
  kAddressOrdered,
  kSizeOrdered,
};

/// Tree D1 — Number of max block sizes allowed after coalescing.
enum class CoalesceSizes {
  kNotFixed,        ///< [paper: "many and not fixed"] any merged size allowed
  kBoundedByClass,  ///< merged size must stay within the class ceiling
};

/// Tree D2 — When coalescing runs.
enum class CoalesceWhen {
  kNever,     ///< [paper: "never"]
  kDeferred,  ///< only when an allocation would otherwise grow the pool
  kAlways,    ///< [paper: "always"] immediately on every deallocation
};

/// Tree E1 — Number of min block sizes allowed after splitting.
enum class SplitSizes {
  kNotFixed,        ///< [paper: "many and not fixed"] any remainder allowed
  kBoundedByClass,  ///< remainder rounded down to a size class (waste!)
};

/// Tree E2 — When splitting runs.
enum class SplitWhen {
  kNever,
  kDeferred,  ///< split only remainders above a pressure threshold
  kAlways,    ///< split whenever a viable remainder exists
};

// ---------------------------------------------------------------------------

/// One leaf per decision tree = one *atomic DM manager* (paper Sec. 3.1).
///
/// Any combination is expressible; `dmm::core::Constraints` decides which
/// combinations are coherent (Fig. 2 interdependencies).  The numeric
/// parameters below the enums are the implementation knobs the paper fixes
/// "via simulation" after the tree decisions (Sec. 5).
struct DmmConfig {
  // Category A — creating block structures
  BlockStructure block_structure = BlockStructure::kDoublyLinkedList;  // A1
  BlockSizes block_sizes = BlockSizes::kMany;                          // A2
  BlockTags block_tags = BlockTags::kHeaderFooter;                     // A3
  RecordedInfo recorded_info = RecordedInfo::kSizeAndStatus;           // A4
  FlexibleBlockSize flexible = FlexibleBlockSize::kSplitAndCoalesce;   // A5
  // Category B — pool division
  PoolDivision pool_division = PoolDivision::kSinglePool;              // B1
  PoolStructure pool_structure = PoolStructure::kArray;                // B2
  PoolCount pool_count = PoolCount::kOne;                              // B3
  PoolAdaptivity adaptivity = PoolAdaptivity::kGrowAndShrink;          // B4
  // Category C — allocating blocks
  FitAlgorithm fit = FitAlgorithm::kExactFit;                          // C1
  FreeListOrder order = FreeListOrder::kLIFO;                          // C2
  // Category D — coalescing blocks
  CoalesceSizes coalesce_sizes = CoalesceSizes::kNotFixed;             // D1
  CoalesceWhen coalesce_when = CoalesceWhen::kAlways;                  // D2
  // Category E — splitting blocks
  SplitSizes split_sizes = SplitSizes::kNotFixed;                      // E1
  SplitWhen split_when = SplitWhen::kAlways;                           // E2

  // ---- numeric knobs (fixed per manager after tree decisions) ----
  /// Chunk size requested from the arena when a pool grows.
  std::size_t chunk_bytes = 16 * 1024;
  /// Requests above this get a dedicated chunk released straight back on
  /// free (the custom managers' "large object" path).
  std::size_t big_request_bytes = 8 * 1024;
  /// Static preallocation size when adaptivity == kStaticPreallocated.
  std::size_t static_pool_bytes = 1 << 20;
  /// Deferred splitting: only split when the remainder is at least this.
  std::size_t deferred_split_min = 2048;
  /// Size-class ceiling exponent for kBoundedByClass (2^k bytes).
  unsigned max_class_log2 = 16;

  bool operator==(const DmmConfig&) const = default;
};

/// Canonical behavioural form of a decision vector: fields that the
/// synthesised manager provably never reads under the vector's gating
/// decisions are reset to a fixed representative, so two vectors that build
/// behaviourally identical managers compare (and hash) equal.
///
/// Dead *leaves* (the manager double-gates each mechanism on A5 and its
/// schedule, and self-ordering DDTs override C2 — see Pool/FreeIndex):
///
///   * splitting runs only when A5 grants it AND E2 != never; the pair is
///     normalised to its effective value (a granted-but-never mechanism
///     and a scheduled-but-absent one both collapse to "off")
///   * coalescing likewise (A5 x D2)
///   * split machinery off  -> split_sizes (E1) ignored
///   * coalesce machinery off -> coalesce_sizes (D1) ignored
///   * size-sorted DDTs (A1) impose their own discipline -> order (C2) dead
///   * pool division != per-size-class -> pool_count (B3) never read; it
///     collapses to the value the B1->B3 hard rules force (single pool ->
///     one, per-exact-size -> dynamic).  B2 stays live even for a single
///     pool: the linked-list lookup charges work the array lookup does not.
///
/// Dead numeric knobs:
///
///   * split machinery off  -> deferred_split_min dead
///   * neither side bounded by class -> max_class_log2 dead
///   * adaptivity != static -> static_pool_bytes dead
///   * adaptivity == static -> big_request_bytes dead (no dedicated path)
///
/// All other leaves are preserved — they are the design vector's identity.
/// The score caches key on this form: it is what makes the greedy walk's
/// repaired completions collide into cache hits.  Every coherent vector
/// (core::coherent_space) is a fixed point, and no two share a form, so
/// the searches, which score coherent vectors only, need no duplicate
/// filter of their own.
[[nodiscard]] DmmConfig canonical(const DmmConfig& cfg);

/// FNV-1a over every field of the vector; agrees with operator==.
/// Canonicalize first when behavioural identity is wanted.
[[nodiscard]] std::size_t hash_value(const DmmConfig& cfg);

/// One FNV-1a mixing step, exposed so composite cache keys (e.g. trace
/// fingerprint x canonical config) hash consistently with this header's
/// family everywhere they are formed.
[[nodiscard]] std::size_t hash_combine(std::size_t seed, std::size_t value);

/// Hash functor for unordered containers keyed by DmmConfig.
struct DmmConfigHash {
  [[nodiscard]] std::size_t operator()(const DmmConfig& cfg) const {
    return hash_value(cfg);
  }
};

// --- printable names (implemented in config.cpp) ---
std::string to_string(BlockStructure v);
std::string to_string(BlockSizes v);
std::string to_string(BlockTags v);
std::string to_string(RecordedInfo v);
std::string to_string(FlexibleBlockSize v);
std::string to_string(PoolDivision v);
std::string to_string(PoolStructure v);
std::string to_string(PoolCount v);
std::string to_string(PoolAdaptivity v);
std::string to_string(FitAlgorithm v);
std::string to_string(FreeListOrder v);
std::string to_string(CoalesceSizes v);
std::string to_string(CoalesceWhen v);
std::string to_string(SplitSizes v);
std::string to_string(SplitWhen v);

/// Multi-line human-readable dump of a full decision vector.
std::string describe(const DmmConfig& cfg);

/// Compact single-line signature, e.g. "A1=dll A2=many ... E2=always".
std::string signature(const DmmConfig& cfg);

// --- presets used throughout tests/benches ---

/// The custom manager the paper derives for DRR (Sec. 5, decision walk).
DmmConfig drr_paper_config();

/// Minimal-capability valid vector: no tags, no split/coalesce, per-exact
/// pools, singly-linked first-fit.  The exploration engine uses it as the
/// value of *undecided* trees, so each decision is scored against only the
/// capabilities already committed (the paper's forward constraint
/// propagation; also what makes the Fig. 4 wrong-order trap reproducible).
DmmConfig minimal_config();

/// A deliberately crippled config from the Fig. 4 wrong-order example:
/// A3=none decided first, which forces D2/E2=never.
DmmConfig fig4_wrong_order_config();

}  // namespace dmm::alloc

#endif  // DMM_ALLOC_CONFIG_H
