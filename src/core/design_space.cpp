#include "dmm/core/design_space.h"

#include <cstdio>
#include <cstdlib>
#include <functional>

#include "dmm/alloc/config_rules.h"

namespace dmm::core {

using alloc::DmmConfig;

namespace {
[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "dmm::core::design_space fatal: %s\n", what);
  std::abort();
}

// Leaf rosters per tree.  Reconstructed leaves (not named verbatim in the
// paper text) are chosen from Wilson et al. '95, which Fig. 1 cites as its
// source taxonomy — see the Figure-1 reconstruction note in
// dmm/alloc/config.h.
constexpr int kLeafCounts[kTreeCount] = {
    5,  // A1: sll, dll, sll-sorted, dll-sorted, size-bst
    2,  // A2: fixed-classes, many
    4,  // A3: none, header, footer, header+footer
    4,  // A4: none, size, status, size+status
    4,  // A5: none, split-only, coalesce-only, split+coalesce
    3,  // B1: single-pool, per-size-class, per-exact-size
    2,  // B2: array, linked-list
    3,  // B3: one, static-many, dynamic
    3,  // B4: static, grow-only, grow+shrink
    5,  // C1: first, next, best, worst, exact
    4,  // C2: lifo, fifo, addr-ordered, size-ordered
    2,  // D1: not-fixed, bounded
    3,  // D2: never, deferred, always
    2,  // E1: not-fixed, bounded
    3,  // E2: never, deferred, always
};

const char* const kTreeIds[kTreeCount] = {"A1", "A2", "A3", "A4", "A5",
                                          "B1", "B2", "B3", "B4", "C1",
                                          "C2", "D1", "D2", "E1", "E2"};

const char* const kTreeTitles[kTreeCount] = {
    "Block structure",
    "Block sizes",
    "Block tags",
    "Block recorded info",
    "Flexible block size manager",
    "Pool division based on size",
    "Pool structure",
    "Pool count",
    "Pool memory adaptivity",
    "Fit algorithm",
    "Free-list ordering",
    "Coalescing: number of max block size",
    "Coalescing: when",
    "Splitting: number of min block size",
    "Splitting: when",
};
}  // namespace

const std::vector<TreeId>& all_trees() {
  static const std::vector<TreeId> kAll = [] {
    std::vector<TreeId> v;
    for (int i = 0; i < kTreeCount; ++i) v.push_back(static_cast<TreeId>(i));
    return v;
  }();
  return kAll;
}

std::string tree_id(TreeId t) { return kTreeIds[static_cast<int>(t)]; }

std::string tree_title(TreeId t) { return kTreeTitles[static_cast<int>(t)]; }

char tree_category(TreeId t) { return kTreeIds[static_cast<int>(t)][0]; }

std::string category_title(char category) {
  switch (category) {
    case 'A': return "Creating block structures";
    case 'B': return "Pool division based on";
    case 'C': return "Allocating blocks";
    case 'D': return "Coalescing blocks";
    case 'E': return "Splitting blocks";
  }
  die("unknown category");
}

int leaf_count(TreeId t) { return kLeafCounts[static_cast<int>(t)]; }

int get_leaf(const DmmConfig& c, TreeId t) {
  switch (t) {
    case TreeId::kA1: return static_cast<int>(c.block_structure);
    case TreeId::kA2: return static_cast<int>(c.block_sizes);
    case TreeId::kA3: return static_cast<int>(c.block_tags);
    case TreeId::kA4: return static_cast<int>(c.recorded_info);
    case TreeId::kA5: return static_cast<int>(c.flexible);
    case TreeId::kB1: return static_cast<int>(c.pool_division);
    case TreeId::kB2: return static_cast<int>(c.pool_structure);
    case TreeId::kB3: return static_cast<int>(c.pool_count);
    case TreeId::kB4: return static_cast<int>(c.adaptivity);
    case TreeId::kC1: return static_cast<int>(c.fit);
    case TreeId::kC2: return static_cast<int>(c.order);
    case TreeId::kD1: return static_cast<int>(c.coalesce_sizes);
    case TreeId::kD2: return static_cast<int>(c.coalesce_when);
    case TreeId::kE1: return static_cast<int>(c.split_sizes);
    case TreeId::kE2: return static_cast<int>(c.split_when);
  }
  die("unknown tree");
}

void set_leaf(DmmConfig& c, TreeId t, int leaf) {
  if (leaf < 0 || leaf >= leaf_count(t)) die("leaf index out of range");
  switch (t) {
    case TreeId::kA1:
      c.block_structure = static_cast<alloc::BlockStructure>(leaf);
      return;
    case TreeId::kA2:
      c.block_sizes = static_cast<alloc::BlockSizes>(leaf);
      return;
    case TreeId::kA3:
      c.block_tags = static_cast<alloc::BlockTags>(leaf);
      return;
    case TreeId::kA4:
      c.recorded_info = static_cast<alloc::RecordedInfo>(leaf);
      return;
    case TreeId::kA5:
      c.flexible = static_cast<alloc::FlexibleBlockSize>(leaf);
      return;
    case TreeId::kB1:
      c.pool_division = static_cast<alloc::PoolDivision>(leaf);
      return;
    case TreeId::kB2:
      c.pool_structure = static_cast<alloc::PoolStructure>(leaf);
      return;
    case TreeId::kB3:
      c.pool_count = static_cast<alloc::PoolCount>(leaf);
      return;
    case TreeId::kB4:
      c.adaptivity = static_cast<alloc::PoolAdaptivity>(leaf);
      return;
    case TreeId::kC1:
      c.fit = static_cast<alloc::FitAlgorithm>(leaf);
      return;
    case TreeId::kC2:
      c.order = static_cast<alloc::FreeListOrder>(leaf);
      return;
    case TreeId::kD1:
      c.coalesce_sizes = static_cast<alloc::CoalesceSizes>(leaf);
      return;
    case TreeId::kD2:
      c.coalesce_when = static_cast<alloc::CoalesceWhen>(leaf);
      return;
    case TreeId::kE1:
      c.split_sizes = static_cast<alloc::SplitSizes>(leaf);
      return;
    case TreeId::kE2:
      c.split_when = static_cast<alloc::SplitWhen>(leaf);
      return;
  }
  die("unknown tree");
}

std::string leaf_name(TreeId t, int leaf) {
  DmmConfig c;
  set_leaf(c, t, leaf);
  switch (t) {
    case TreeId::kA1: return alloc::to_string(c.block_structure);
    case TreeId::kA2: return alloc::to_string(c.block_sizes);
    case TreeId::kA3: return alloc::to_string(c.block_tags);
    case TreeId::kA4: return alloc::to_string(c.recorded_info);
    case TreeId::kA5: return alloc::to_string(c.flexible);
    case TreeId::kB1: return alloc::to_string(c.pool_division);
    case TreeId::kB2: return alloc::to_string(c.pool_structure);
    case TreeId::kB3: return alloc::to_string(c.pool_count);
    case TreeId::kB4: return alloc::to_string(c.adaptivity);
    case TreeId::kC1: return alloc::to_string(c.fit);
    case TreeId::kC2: return alloc::to_string(c.order);
    case TreeId::kD1: return alloc::to_string(c.coalesce_sizes);
    case TreeId::kD2: return alloc::to_string(c.coalesce_when);
    case TreeId::kE1: return alloc::to_string(c.split_sizes);
    case TreeId::kE2: return alloc::to_string(c.split_when);
  }
  die("unknown tree");
}

TreeId parse_tree_id(const std::string& id) {
  for (int i = 0; i < kTreeCount; ++i) {
    if (id == kTreeIds[i]) return static_cast<TreeId>(i);
  }
  die("unknown tree id string");
}

std::vector<TreeId> trees_in_tag(const std::string& tag) {
  std::vector<TreeId> out;
  std::string token;
  auto flush = [&] {
    if (!token.empty()) {
      out.push_back(parse_tree_id(token));
      token.clear();
    }
  };
  for (std::size_t i = 0; i < tag.size(); ++i) {
    const char ch = tag[i];
    if (ch == '/' ) {
      flush();
    } else if (ch == '-' && i + 1 < tag.size() && tag[i + 1] == '>') {
      flush();
      ++i;
    } else {
      token.push_back(ch);
    }
  }
  flush();
  return out;
}

bool scoped_violation(const DmmConfig& cfg, const DecidedMask& assigned) {
  for (const alloc::RuleViolation& v : alloc::check_rules(cfg)) {
    bool all_assigned = true;
    for (TreeId t : trees_in_tag(v.trees)) {
      if (!assigned[static_cast<std::size_t>(t)]) {
        all_assigned = false;
        break;
      }
    }
    if (all_assigned) return true;
  }
  return false;
}

namespace {

/// Depth-first completion of @p cfg from tree @p tree on, appending every
/// coherent completion to @p out.  Trees not yet assigned hold leaf 0, and
/// a tree goes back to it when the walk backs out: the A2->D1 and A2->E1
/// rules also read D2 and E2, which their tags do not name, and leaf 0 of
/// those is `never`, under which neither rule fires.
void extend(DmmConfig& cfg, DecidedMask& assigned, int tree,
            std::vector<DmmConfig>& out) {
  if (tree == kTreeCount) {
    out.push_back(cfg);
    return;
  }
  const auto slot = static_cast<std::size_t>(tree);
  const auto id = static_cast<TreeId>(tree);
  assigned[slot] = true;
  for (int leaf = 0; leaf < kLeafCounts[tree]; ++leaf) {
    set_leaf(cfg, id, leaf);
    if (!scoped_violation(cfg, assigned)) extend(cfg, assigned, tree + 1, out);
  }
  set_leaf(cfg, id, 0);
  assigned[slot] = false;
}

}  // namespace

const std::vector<DmmConfig>& coherent_space() {
  static const std::vector<DmmConfig> kSpace = [] {
    std::vector<DmmConfig> out;
    DmmConfig cfg;
    for (TreeId t : all_trees()) set_leaf(cfg, t, 0);
    DecidedMask assigned{};
    extend(cfg, assigned, 0, out);
    return out;
  }();
  return kSpace;
}

std::uint64_t raw_space_size() {
  std::uint64_t n = 1;
  for (int c : kLeafCounts) n *= static_cast<std::uint64_t>(c);
  return n;
}

void for_each_vector(const std::function<void(const DmmConfig&)>& fn,
                     std::uint64_t stride) {
  if (stride == 0) stride = 1;
  const std::uint64_t total = raw_space_size();
  DmmConfig cfg;
  for (std::uint64_t index = 0; index < total; index += stride) {
    std::uint64_t rest = index;
    for (int t = 0; t < kTreeCount; ++t) {
      const auto n = static_cast<std::uint64_t>(kLeafCounts[t]);
      set_leaf(cfg, static_cast<TreeId>(t), static_cast<int>(rest % n));
      rest /= n;
    }
    fn(cfg);
  }
}

SpaceCensus census(std::uint64_t sample_stride) {
  SpaceCensus out;
  for_each_vector(
      [&](const DmmConfig& cfg) {
        ++out.raw;
        const auto violations = alloc::check_rules(cfg);
        bool hard = false;
        for (const auto& v : violations) hard = hard || v.hard;
        if (!hard) ++out.operational;
        if (violations.empty()) ++out.coherent;
      },
      sample_stride);
  return out;
}

}  // namespace dmm::core
