#ifndef DMM_TESTS_VALID_CONFIGS_H
#define DMM_TESTS_VALID_CONFIGS_H

// A structured sample of repair-valid decision vectors, shared by the
// property suite and the policy-core shape differential test.
//
// Vectors are drawn from a structured grid over the search space and
// filtered through the interdependency rules, so the sample sweeps wildly
// different managers (buddy-style, segregated-fixed, sorted-list best-fit,
// never-defragmenting, static-budget, ...).

#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/alloc/config_rules.h"

namespace dmm::alloc {

inline std::vector<DmmConfig> sample_valid_configs() {
  std::vector<DmmConfig> out;
  // Structured grid: coarse sweep of the high-impact trees, with the
  // dependent trees set coherently per the constraint engine.
  const BlockStructure ddts[] = {
      BlockStructure::kSinglyLinkedList, BlockStructure::kDoublyLinkedList,
      BlockStructure::kDoublySortedBySize, BlockStructure::kSizeBinaryTree};
  const FitAlgorithm fits[] = {FitAlgorithm::kFirstFit,
                               FitAlgorithm::kBestFit,
                               FitAlgorithm::kExactFit,
                               FitAlgorithm::kWorstFit};
  const PoolAdaptivity adaptivities[] = {PoolAdaptivity::kGrowOnly,
                                         PoolAdaptivity::kGrowAndShrink};
  const CoalesceWhen coalesce_whens[] = {
      CoalesceWhen::kNever, CoalesceWhen::kDeferred, CoalesceWhen::kAlways};
  const SplitWhen split_whens[] = {SplitWhen::kNever, SplitWhen::kDeferred,
                                   SplitWhen::kAlways};

  for (BlockStructure ddt : ddts) {
    for (FitAlgorithm fit : fits) {
      for (PoolAdaptivity ad : adaptivities) {
        for (CoalesceWhen cw : coalesce_whens) {
          for (SplitWhen sw : split_whens) {
            DmmConfig c;
            c.block_structure = ddt;
            c.fit = fit;
            c.adaptivity = ad;
            c.coalesce_when = cw;
            c.split_when = sw;
            // Make A5 agree with the schedules.
            const bool s = sw != SplitWhen::kNever;
            const bool k = cw != CoalesceWhen::kNever;
            c.flexible = s && k   ? FlexibleBlockSize::kSplitAndCoalesce
                         : s      ? FlexibleBlockSize::kSplitOnly
                         : k      ? FlexibleBlockSize::kCoalesceOnly
                                  : FlexibleBlockSize::kNone;
            // Self-ordering DDTs pin C2.
            if (ddt == BlockStructure::kDoublySortedBySize ||
                ddt == BlockStructure::kSizeBinaryTree) {
              c.order = FreeListOrder::kSizeOrdered;
            }
            // Positional fits are shadowed on a size tree.
            if (ddt == BlockStructure::kSizeBinaryTree &&
                fit == FitAlgorithm::kFirstFit) {
              continue;
            }
            if (is_valid(c)) out.push_back(c);
          }
        }
      }
    }
  }
  // A few structurally different families on top of the grid.
  {
    DmmConfig c = fig4_wrong_order_config();  // per-exact, no tags
    out.push_back(c);
    c.adaptivity = PoolAdaptivity::kGrowOnly;
    out.push_back(c);
  }
  {
    DmmConfig c;  // Kingsley-like: fixed classes, per-class pools
    c.block_sizes = BlockSizes::kFixedClasses;
    c.pool_division = PoolDivision::kPoolPerSizeClass;
    c.pool_count = PoolCount::kStaticMany;
    c.adaptivity = PoolAdaptivity::kGrowOnly;
    c.flexible = FlexibleBlockSize::kNone;
    c.split_when = SplitWhen::kNever;
    c.coalesce_when = CoalesceWhen::kNever;
    c.block_structure = BlockStructure::kSinglyLinkedList;
    c.fit = FitAlgorithm::kFirstFit;
    if (is_valid(c)) out.push_back(c);
    c.pool_count = PoolCount::kDynamic;  // lazily created class pools
    if (is_valid(c)) out.push_back(c);
  }
  {
    DmmConfig c = drr_paper_config();  // static-budget variant
    c.adaptivity = PoolAdaptivity::kStaticPreallocated;
    c.static_pool_bytes = 1 << 20;
    if (is_valid(c)) out.push_back(c);
  }
  {
    DmmConfig c = drr_paper_config();  // class-bounded split/coalesce
    c.split_sizes = SplitSizes::kBoundedByClass;
    c.coalesce_sizes = CoalesceSizes::kBoundedByClass;
    if (is_valid(c)) out.push_back(c);
  }
  return out;
}

}  // namespace dmm::alloc

#endif  // DMM_TESTS_VALID_CONFIGS_H
