#ifndef DMM_CORE_CONSTRAINTS_H
#define DMM_CORE_CONSTRAINTS_H

#include <string>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/alloc/config_rules.h"
#include "dmm/core/design_space.h"

namespace dmm::core {

/// Interdependency engine over partial decision vectors (paper Sec. 3.2 /
/// Fig. 2): rules are *scoped* to the trees they involve, so during an
/// ordered traversal only rules whose trees are all decided can prune —
/// exactly the "constraints are propagated from one decision level to all
/// subsequent levels" mechanism of the paper.
class Constraints {
 public:
  /// True iff choosing @p leaf for @p tree is compatible with the already
  /// decided trees in @p cfg: no violated rule, hard or soft, whose
  /// involved trees are all within decided + {tree} (scoped_violation),
  /// and a completion that runs exists.
  [[nodiscard]] static bool admissible(alloc::DmmConfig cfg,
                                       const DecidedMask& decided,
                                       TreeId tree, int leaf);

  /// Completes a partial vector into a runnable one by nudging *undecided*
  /// trees until no violated rule involves an undecided tree.  Decided
  /// trees are never touched.  Used to score partial vectors by
  /// simulation during the ordered traversal.
  [[nodiscard]] static alloc::DmmConfig repair(alloc::DmmConfig cfg,
                                               const DecidedMask& decided);

  /// One catalogued interdependency with its reach into the space.
  struct CatalogEntry {
    std::string tag;     ///< e.g. "A3->A4"
    std::string reason;
    bool hard = false;
    std::uint64_t occurrences = 0;  ///< vectors (in the sampled census)
                                    ///< violating this rule
  };

  /// Sweeps the (strided) space and collects every distinct rule with the
  /// number of vectors it prunes — the data behind the Fig. 2 bench.
  [[nodiscard]] static std::vector<CatalogEntry> catalog(
      std::uint64_t stride = 97);

 private:
  static void nudge(alloc::DmmConfig& cfg, TreeId tree,
                    const DecidedMask& decided);
};

}  // namespace dmm::core

#endif  // DMM_CORE_CONSTRAINTS_H
