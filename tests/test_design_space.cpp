#include "dmm/core/design_space.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "dmm/alloc/config_rules.h"
#include "dmm/alloc/custom_manager.h"
#include "dmm/sysmem/system_arena.h"

namespace dmm::core {
namespace {

TEST(DesignSpace, FifteenTreesInFiveCategories) {
  EXPECT_EQ(all_trees().size(), 15u);
  int per_category[5] = {0, 0, 0, 0, 0};
  for (TreeId t : all_trees()) {
    ++per_category[tree_category(t) - 'A'];
  }
  EXPECT_EQ(per_category[0], 5);  // A1..A5
  EXPECT_EQ(per_category[1], 4);  // B1..B4
  EXPECT_EQ(per_category[2], 2);  // C1..C2
  EXPECT_EQ(per_category[3], 2);  // D1..D2
  EXPECT_EQ(per_category[4], 2);  // E1..E2
}

TEST(DesignSpace, GetSetLeafRoundTripsEveryTree) {
  for (TreeId t : all_trees()) {
    for (int leaf = 0; leaf < leaf_count(t); ++leaf) {
      alloc::DmmConfig cfg;
      set_leaf(cfg, t, leaf);
      EXPECT_EQ(get_leaf(cfg, t), leaf)
          << tree_id(t) << " leaf " << leaf_name(t, leaf);
    }
  }
}

TEST(DesignSpace, LeafNamesAreUniquePerTree) {
  for (TreeId t : all_trees()) {
    std::vector<std::string> names;
    for (int leaf = 0; leaf < leaf_count(t); ++leaf) {
      names.push_back(leaf_name(t, leaf));
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end())
        << "duplicate leaf names in " << tree_id(t);
  }
}

TEST(DesignSpace, PaperLeavesAreSpelledAsInTheText) {
  // Leaves the paper cites verbatim in its Sec. 5 decision walk.
  alloc::DmmConfig c = alloc::drr_paper_config();
  EXPECT_EQ(leaf_name(TreeId::kA2, get_leaf(c, TreeId::kA2)), "many");
  EXPECT_EQ(leaf_name(TreeId::kA5, get_leaf(c, TreeId::kA5)),
            "split+coalesce");
  EXPECT_EQ(leaf_name(TreeId::kD2, get_leaf(c, TreeId::kD2)), "always");
  EXPECT_EQ(leaf_name(TreeId::kE2, get_leaf(c, TreeId::kE2)), "always");
  EXPECT_EQ(leaf_name(TreeId::kD1, get_leaf(c, TreeId::kD1)), "not-fixed");
  EXPECT_EQ(leaf_name(TreeId::kB1, get_leaf(c, TreeId::kB1)), "single-pool");
  EXPECT_EQ(leaf_name(TreeId::kC1, get_leaf(c, TreeId::kC1)), "exact-fit");
  EXPECT_EQ(leaf_name(TreeId::kA1, get_leaf(c, TreeId::kA1)), "dll");
}

TEST(DesignSpace, ParseTreeIdRoundTrip) {
  for (TreeId t : all_trees()) {
    EXPECT_EQ(parse_tree_id(tree_id(t)), t);
  }
}

TEST(DesignSpace, TreesInTagParsesCompoundTags) {
  const auto simple = trees_in_tag("A3->A4");
  ASSERT_EQ(simple.size(), 2u);
  EXPECT_EQ(simple[0], TreeId::kA3);
  EXPECT_EQ(simple[1], TreeId::kA4);
  const auto compound = trees_in_tag("A3/A4->A2/B1");
  ASSERT_EQ(compound.size(), 4u);
  EXPECT_EQ(compound[0], TreeId::kA3);
  EXPECT_EQ(compound[1], TreeId::kA4);
  EXPECT_EQ(compound[2], TreeId::kA2);
  EXPECT_EQ(compound[3], TreeId::kB1);
}

TEST(DesignSpace, RawSpaceSizeIsTheLeafProduct) {
  std::uint64_t expect = 1;
  for (TreeId t : all_trees()) {
    expect *= static_cast<std::uint64_t>(leaf_count(t));
  }
  EXPECT_EQ(raw_space_size(), expect);
  EXPECT_GT(raw_space_size(), 1000000u)
      << "the paper's point: a huge amount of potential implementations";
}

TEST(DesignSpace, ForEachVectorVisitsStridedSlice) {
  std::uint64_t count = 0;
  for_each_vector([&](const alloc::DmmConfig&) { ++count; },
                  /*stride=*/100003);
  EXPECT_EQ(count, raw_space_size() / 100003 + 1);
}

TEST(DesignSpace, CensusFindsValidAndInvalidVectors) {
  // Sampled census (stride keeps it fast); both populations must exist,
  // and validity must prune a large share of the raw space.
  const SpaceCensus c = census(/*sample_stride=*/997);
  EXPECT_GT(c.raw, 0u);
  EXPECT_GT(c.operational, 0u);
  EXPECT_GT(c.coherent, 0u);
  EXPECT_LT(c.coherent, c.operational);
  EXPECT_LT(c.operational, c.raw);
}

TEST(DesignSpace, EveryCoherentSampledVectorIsConstructible) {
  // Any vector that passes the rules must yield a working manager.
  std::uint64_t built = 0;
  for_each_vector(
      [&](const alloc::DmmConfig& cfg) {
        if (!alloc::is_valid(cfg)) return;
        sysmem::SystemArena arena;
        alloc::CustomManager mgr(arena, cfg);
        void* p = mgr.allocate(64);
        ASSERT_NE(p, nullptr);
        mgr.deallocate(p);
        ++built;
      },
      /*stride=*/397);
  EXPECT_GT(built, 50u);
}

TEST(CoherentSpace, ListsEveryCoherentVectorOnceAsItsCanonicalForm) {
  // 38,328 is census().coherent over the whole space (a 13 s brute force;
  // bench_fig1_space checks the two agree).
  const std::vector<alloc::DmmConfig>& space = coherent_space();
  EXPECT_EQ(space.size(), 38328u);
  std::unordered_set<alloc::DmmConfig, alloc::DmmConfigHash> seen;
  for (const alloc::DmmConfig& cfg : space) {
    EXPECT_TRUE(alloc::is_valid(cfg)) << alloc::signature(cfg);
    // A fixed point of canonical(), and distinct from every other entry:
    // no two coherent vectors build the same manager, which is why no
    // search filters canonical duplicates.
    EXPECT_EQ(alloc::canonical(cfg), cfg) << alloc::signature(cfg);
    EXPECT_TRUE(seen.insert(cfg).second) << alloc::signature(cfg);
  }
}

TEST(CoherentSpace, HoldsAStridedVectorIffItIsValid) {
  const std::vector<alloc::DmmConfig>& space = coherent_space();
  const std::unordered_set<alloc::DmmConfig, alloc::DmmConfigHash> index(
      space.begin(), space.end());
  std::uint64_t valid = 0;
  for_each_vector(
      [&](const alloc::DmmConfig& cfg) {
        const bool coherent = alloc::is_valid(cfg);
        if (coherent) ++valid;
        EXPECT_EQ(index.count(cfg) == 1, coherent) << alloc::signature(cfg);
      },
      /*stride=*/997);
  EXPECT_GT(valid, 0u);
}

}  // namespace
}  // namespace dmm::core
