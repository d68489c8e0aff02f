#include "dmm/core/constraints.h"

#include <algorithm>
#include <map>

namespace dmm::core {

using alloc::DmmConfig;

bool Constraints::admissible(DmmConfig cfg, const DecidedMask& decided,
                             TreeId tree, int leaf) {
  set_leaf(cfg, tree, leaf);
  DecidedMask after = decided;
  after[static_cast<std::size_t>(tree)] = true;
  // Rules whose trees are all decided can veto the leaf outright.
  if (scoped_violation(cfg, after)) return false;
  // Rules reaching into undecided trees must have a fixing completion;
  // repair() searches for one, so an unrepairable leaf is a dead end.
  const DmmConfig completed = repair(cfg, after);
  return alloc::unsupported_reason(completed) == std::nullopt;
}

namespace {

bool nudge_records_size(const DmmConfig& c) {
  const bool header = c.block_tags == alloc::BlockTags::kHeader ||
                      c.block_tags == alloc::BlockTags::kHeaderFooter;
  return header && (c.recorded_info == alloc::RecordedInfo::kSize ||
                    c.recorded_info == alloc::RecordedInfo::kSizeAndStatus);
}

bool nudge_records_status(const DmmConfig& c) {
  const bool header = c.block_tags == alloc::BlockTags::kHeader ||
                      c.block_tags == alloc::BlockTags::kHeaderFooter;
  return header && (c.recorded_info == alloc::RecordedInfo::kStatus ||
                    c.recorded_info == alloc::RecordedInfo::kSizeAndStatus);
}

}  // namespace

void Constraints::nudge(DmmConfig& cfg, TreeId tree,
                        const DecidedMask& decided) {
  if (decided[static_cast<std::size_t>(tree)]) return;
  using namespace alloc;
  const auto is_decided = [&](TreeId t) {
    return decided[static_cast<std::size_t>(t)];
  };
  // Every nudge derives the undecided tree's value from the decided ones
  // ("propagate the constraints to all subsequent levels", Sec. 3.1).
  switch (tree) {
    case TreeId::kA1:
      // Simplest DDT that still supports the committed mechanisms: DLL for
      // coalescing (O(1) unlink), SLL otherwise.
      cfg.block_structure = cfg.coalesce_when != CoalesceWhen::kNever
                                ? BlockStructure::kDoublyLinkedList
                                : BlockStructure::kSinglyLinkedList;
      break;
    case TreeId::kA2:
      cfg.block_sizes = BlockSizes::kMany;
      break;
    case TreeId::kA3:
      // Tags only when something needs them: recorded info decided, a
      // mechanism active, or a variable-size pool to serve.
      if (cfg.recorded_info != RecordedInfo::kNone ||
          cfg.split_when != SplitWhen::kNever ||
          cfg.coalesce_when != CoalesceWhen::kNever ||
          !pool_blocks_fixed(cfg)) {
        cfg.block_tags = cfg.coalesce_when == CoalesceWhen::kAlways
                             ? BlockTags::kHeaderFooter
                             : BlockTags::kHeader;
      } else {
        cfg.block_tags = BlockTags::kNone;
      }
      break;
    case TreeId::kA4:
      if (cfg.block_tags == BlockTags::kNone) {
        cfg.recorded_info = RecordedInfo::kNone;
      } else {
        cfg.recorded_info = cfg.coalesce_when != CoalesceWhen::kNever
                                ? RecordedInfo::kSizeAndStatus
                                : RecordedInfo::kSize;
      }
      break;
    case TreeId::kA5: {
      const bool s = cfg.split_when != SplitWhen::kNever;
      const bool k = cfg.coalesce_when != CoalesceWhen::kNever;
      cfg.flexible = s && k   ? FlexibleBlockSize::kSplitAndCoalesce
                     : s      ? FlexibleBlockSize::kSplitOnly
                     : k      ? FlexibleBlockSize::kCoalesceOnly
                              : FlexibleBlockSize::kNone;
      break;
    }
    case TreeId::kB1:
      if (cfg.adaptivity == PoolAdaptivity::kStaticPreallocated &&
          is_decided(TreeId::kB4)) {
        cfg.pool_division = PoolDivision::kSinglePool;
      } else if (!nudge_records_size(cfg) &&
                 (is_decided(TreeId::kA3) || is_decided(TreeId::kA4))) {
        // No in-block size info: pool membership must provide it.
        cfg.pool_division = PoolDivision::kPoolPerExactSize;
      } else if (is_decided(TreeId::kB3)) {
        switch (cfg.pool_count) {
          case PoolCount::kOne:
            cfg.pool_division = PoolDivision::kSinglePool;
            break;
          case PoolCount::kStaticMany:
            cfg.pool_division = PoolDivision::kPoolPerSizeClass;
            break;
          case PoolCount::kDynamic:
            cfg.pool_division = PoolDivision::kPoolPerExactSize;
            break;
        }
      } else {
        cfg.pool_division = PoolDivision::kSinglePool;
      }
      break;
    case TreeId::kB2:
      cfg.pool_structure = PoolStructure::kArray;
      break;
    case TreeId::kB3:
      cfg.pool_count = cfg.pool_division == PoolDivision::kSinglePool
                           ? PoolCount::kOne
                           : PoolCount::kDynamic;
      break;
    case TreeId::kB4:
      cfg.adaptivity = PoolAdaptivity::kGrowOnly;
      break;
    case TreeId::kC1:
      cfg.fit = cfg.block_structure == BlockStructure::kSizeBinaryTree
                    ? FitAlgorithm::kBestFit
                    : cfg.fit == FitAlgorithm::kFirstFit ||
                              cfg.fit == FitAlgorithm::kNextFit
                          ? FitAlgorithm::kBestFit
                          : cfg.fit;
      break;
    case TreeId::kC2:
      cfg.order = FreeListOrder::kSizeOrdered;
      break;
    case TreeId::kD1:
      cfg.coalesce_sizes = cfg.block_sizes == BlockSizes::kFixedClasses &&
                                   cfg.coalesce_when != CoalesceWhen::kNever
                               ? CoalesceSizes::kBoundedByClass
                               : CoalesceSizes::kNotFixed;
      break;
    case TreeId::kD2: {
      const bool wants = cfg.flexible == FlexibleBlockSize::kCoalesceOnly ||
                         cfg.flexible == FlexibleBlockSize::kSplitAndCoalesce;
      const bool can =
          (!is_decided(TreeId::kA3) && !is_decided(TreeId::kA4)) ||
          (nudge_records_size(cfg) && nudge_records_status(cfg));
      // An undecided B1 can still become a variable-size division.
      const bool pools_fixed =
          pool_blocks_fixed(cfg) && is_decided(TreeId::kB1);
      cfg.coalesce_when = wants && can && !pools_fixed
                              ? CoalesceWhen::kAlways
                              : CoalesceWhen::kNever;
      break;
    }
    case TreeId::kE1:
      cfg.split_sizes = cfg.block_sizes == BlockSizes::kFixedClasses &&
                                cfg.split_when != SplitWhen::kNever
                            ? SplitSizes::kBoundedByClass
                            : SplitSizes::kNotFixed;
      break;
    case TreeId::kE2: {
      const bool wants = cfg.flexible == FlexibleBlockSize::kSplitOnly ||
                         cfg.flexible == FlexibleBlockSize::kSplitAndCoalesce;
      const bool can =
          (!is_decided(TreeId::kA3) && !is_decided(TreeId::kA4)) ||
          nudge_records_size(cfg);
      const bool pools_fixed =
          pool_blocks_fixed(cfg) && is_decided(TreeId::kB1);
      cfg.split_when = wants && can && !pools_fixed ? SplitWhen::kAlways
                                                    : SplitWhen::kNever;
      break;
    }
  }
}

DmmConfig Constraints::repair(DmmConfig cfg, const DecidedMask& decided) {
  // Fixpoint over the rule set: every violated rule that names an
  // undecided tree triggers a nudge of that tree.  The nudges are
  // capability-preserving defaults, so the loop converges in a few passes
  // (bounded explicitly as a tripwire).
  for (int pass = 0; pass < 8; ++pass) {
    const auto violations = alloc::check_rules(cfg);
    bool nudged = false;
    for (const alloc::RuleViolation& v : violations) {
      for (TreeId t : trees_in_tag(v.trees)) {
        if (!decided[static_cast<std::size_t>(t)]) {
          DmmConfig before = cfg;
          nudge(cfg, t, decided);
          nudged = nudged || !(before == cfg);
        }
      }
    }
    if (!nudged) break;
  }
  return cfg;
}

std::vector<Constraints::CatalogEntry> Constraints::catalog(
    std::uint64_t stride) {
  std::map<std::string, CatalogEntry> entries;
  for_each_vector(
      [&](const DmmConfig& cfg) {
        for (const alloc::RuleViolation& v : alloc::check_rules(cfg)) {
          auto [it, inserted] = entries.try_emplace(
              v.trees + "|" + v.reason,
              CatalogEntry{v.trees, v.reason, v.hard, 0});
          ++it->second.occurrences;
        }
      },
      stride);
  std::vector<CatalogEntry> out;
  out.reserve(entries.size());
  for (auto& [key, e] : entries) out.push_back(std::move(e));
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.occurrences > b.occurrences;
  });
  return out;
}

}  // namespace dmm::core
