#ifndef DMM_CORE_DESIGN_SPACE_H
#define DMM_CORE_DESIGN_SPACE_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dmm/alloc/config.h"

namespace dmm::core {

/// The decision trees of the paper's Fig. 1, addressable generically.
///
/// Indices follow the paper where the text names them (A1-A5, B1, C1,
/// D1-D2, E1-E2); B2-B4 and C2 complete the categories per the Figure-1
/// reconstruction note in dmm/alloc/config.h.
enum class TreeId : int {
  kA1 = 0,  ///< Block structure (free-block DDT)
  kA2,      ///< Block sizes
  kA3,      ///< Block tags
  kA4,      ///< Block recorded info
  kA5,      ///< Flexible block size manager
  kB1,      ///< Pool division based on size
  kB2,      ///< Pool structure
  kB3,      ///< Pool count
  kB4,      ///< Pool memory adaptivity
  kC1,      ///< Fit algorithm
  kC2,      ///< Free-list ordering
  kD1,      ///< Coalescing: number of max block size
  kD2,      ///< Coalescing: when
  kE1,      ///< Splitting: number of min block size
  kE2,      ///< Splitting: when
};

inline constexpr int kTreeCount = 15;

/// All trees, in index order.
[[nodiscard]] const std::vector<TreeId>& all_trees();

/// Short id as the paper writes it: "A2", "D1", ...
[[nodiscard]] std::string tree_id(TreeId t);

/// Full tree title: "Block sizes", "Coalescing: when", ...
[[nodiscard]] std::string tree_title(TreeId t);

/// Category letter 'A'..'E' (the paper's five groups).
[[nodiscard]] char tree_category(TreeId t);

/// Category description as in Sec. 3.1.
[[nodiscard]] std::string category_title(char category);

/// Number of leaves in tree @p t.
[[nodiscard]] int leaf_count(TreeId t);

/// Leaf name (matches alloc::to_string of the enum value).
[[nodiscard]] std::string leaf_name(TreeId t, int leaf);

/// Reads the decision vector's leaf index for tree @p t.
[[nodiscard]] int get_leaf(const alloc::DmmConfig& cfg, TreeId t);

/// Writes leaf @p leaf into tree @p t of the decision vector.
void set_leaf(alloc::DmmConfig& cfg, TreeId t, int leaf);

/// Parses a tree id string ("A3") to a TreeId; aborts on unknown ids.
[[nodiscard]] TreeId parse_tree_id(const std::string& id);

/// Trees named in an interdependency tag like "A3/A4->D2".
[[nodiscard]] std::vector<TreeId> trees_in_tag(const std::string& tag);

/// Which trees a partial decision vector has assigned so far (during an
/// ordered traversal: decided).
using DecidedMask = std::array<bool, kTreeCount>;

/// True iff @p cfg violates a rule (hard or soft) whose trees are all
/// marked in @p assigned.  Rules are *scoped* to the trees their tag
/// names, so only such a rule can veto a partial vector: its verdict no
/// longer depends on the trees still open.
[[nodiscard]] bool scoped_violation(const alloc::DmmConfig& cfg,
                                    const DecidedMask& assigned);

/// The coherent design space: every decision vector (on DmmConfig{}'s
/// numeric knobs) that violates no rule, each one atomic DM manager of
/// Sec. 3.1 — 38,328 of raw_space_size()'s vectors.  Built once per
/// process on first use by backtracking over the trees in index order,
/// abandoning a partial vector at its first scoped_violation(); ordered
/// lexicographically with A1 most significant.
[[nodiscard]] const std::vector<alloc::DmmConfig>& coherent_space();

/// Size of the raw cartesian space (product of leaf counts).
[[nodiscard]] std::uint64_t raw_space_size();

/// Counts decision vectors over the full space satisfying the predicate
/// level ("hard" = operational, "all" = hard+soft coherence).  Exhaustive
/// (the space is ~10^7); used by the Fig. 1/2 benches and tests.
struct SpaceCensus {
  std::uint64_t raw = 0;
  std::uint64_t operational = 0;  ///< no hard violations
  std::uint64_t coherent = 0;     ///< no violations at all
};
[[nodiscard]] SpaceCensus census(std::uint64_t sample_stride = 1);

/// Enumerates every decision vector (optionally strided) and invokes
/// fn(cfg).  Order is lexicographic over tree indices.
void for_each_vector(const std::function<void(const alloc::DmmConfig&)>& fn,
                     std::uint64_t stride = 1);

}  // namespace dmm::core

#endif  // DMM_CORE_DESIGN_SPACE_H
