#include "dmm/alloc/free_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "dmm/alloc/block_layout.h"

namespace dmm::alloc {
namespace {

// Every case runs on the DynamicShape instantiation, which reads A1 and
// the layout at run time.
using DynamicIndex = FreeIndex<DynamicShape>;

// Standalone blocks with a size/status header, as FreeIndex sees them.
class BlockFarm {
 public:
  BlockFarm() {
    DmmConfig c;
    c.block_tags = BlockTags::kHeaderFooter;
    c.recorded_info = RecordedInfo::kSizeAndStatus;
    layout_ = BlockLayout::from(c);
  }

  std::byte* make(std::size_t size) {
    storage_.push_back(std::make_unique<std::byte[]>(size));
    std::byte* b = storage_.back().get();
    layout_.write_header(b, size, /*free=*/true);
    return b;
  }

  [[nodiscard]] const BlockLayout& layout() const { return layout_; }

 private:
  BlockLayout layout_;
  std::vector<std::unique_ptr<std::byte[]>> storage_;
};

struct IndexParam {
  BlockStructure ddt;
  FreeListOrder order;
};

std::string param_name(const ::testing::TestParamInfo<IndexParam>& info) {
  std::string s = to_string(info.param.ddt) + "_" +
                  to_string(info.param.order);
  std::replace(s.begin(), s.end(), '-', '_');
  return s;
}

class FreeIndexAllDdts : public ::testing::TestWithParam<IndexParam> {
 protected:
  DynamicIndex make_index() {
    return DynamicIndex(GetParam().ddt, GetParam().order, farm_.layout(), 0);
  }
  BlockFarm farm_;
};

TEST_P(FreeIndexAllDdts, InsertRemoveKeepsCounts) {
  DynamicIndex idx = make_index();
  std::vector<std::byte*> blocks;
  for (std::size_t s : {32u, 64u, 48u, 128u, 32u}) {
    blocks.push_back(farm_.make(s));
    idx.insert(blocks.back());
  }
  EXPECT_EQ(idx.count(), 5u);
  EXPECT_EQ(idx.bytes(), 32u + 64u + 48u + 128u + 32u);
  idx.remove(blocks[2]);
  EXPECT_EQ(idx.count(), 4u);
  EXPECT_EQ(idx.bytes(), 32u + 64u + 128u + 32u);
  EXPECT_FALSE(idx.contains(blocks[2]));
  EXPECT_TRUE(idx.contains(blocks[0]));
  EXPECT_TRUE(idx.contains(blocks[4]));
}

TEST_P(FreeIndexAllDdts, TakeFitNeverReturnsTooSmallABlock) {
  DynamicIndex idx = make_index();
  for (std::size_t s : {32u, 48u, 64u, 96u, 256u}) idx.insert(farm_.make(s));
  for (std::size_t need : {8u, 33u, 64u, 100u, 256u}) {
    DynamicIndex probe = make_index();
    std::vector<std::byte*> blocks;
    for (std::size_t s : {32u, 48u, 64u, 96u, 256u}) {
      blocks.push_back(farm_.make(s));
      probe.insert(blocks.back());
    }
    for (FitAlgorithm fit :
         {FitAlgorithm::kFirstFit, FitAlgorithm::kNextFit,
          FitAlgorithm::kBestFit, FitAlgorithm::kWorstFit,
          FitAlgorithm::kExactFit}) {
      DynamicIndex probe2 = make_index();
      for (std::byte* b : blocks) probe2.insert(b);
      std::byte* got = probe2.take_fit(need, fit);
      ASSERT_NE(got, nullptr);
      BlockLayout layout;  // default layout reads nothing; use farm's sizes
      (void)layout;
      // size recovered through the index's own size function:
      std::size_t got_size = 0;
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (blocks[i] == got) {
          got_size = std::vector<std::size_t>{32, 48, 64, 96, 256}[i];
        }
      }
      EXPECT_GE(got_size, need) << to_string(fit);
      EXPECT_EQ(probe2.count(), blocks.size() - 1);
    }
  }
}

TEST_P(FreeIndexAllDdts, TakeFitFailsWhenNothingFits) {
  DynamicIndex idx = make_index();
  idx.insert(farm_.make(32));
  idx.insert(farm_.make(64));
  EXPECT_EQ(idx.take_fit(128, FitAlgorithm::kBestFit), nullptr);
  EXPECT_EQ(idx.count(), 2u) << "failed take must not lose blocks";
}

TEST_P(FreeIndexAllDdts, PopAnyDrainsEverything) {
  DynamicIndex idx = make_index();
  for (std::size_t s : {32u, 64u, 48u}) idx.insert(farm_.make(s));
  std::set<std::byte*> seen;
  while (!idx.empty()) {
    std::byte* b = idx.pop_any();
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(seen.insert(b).second) << "no block returned twice";
  }
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(idx.pop_any(), nullptr);
  EXPECT_EQ(idx.bytes(), 0u);
}

TEST_P(FreeIndexAllDdts, ForEachVisitsAllExactlyOnce) {
  DynamicIndex idx = make_index();
  std::set<std::byte*> inserted;
  for (std::size_t s : {32u, 40u, 48u, 56u, 64u, 72u}) {
    std::byte* b = farm_.make(s);
    inserted.insert(b);
    idx.insert(b);
  }
  std::set<std::byte*> visited;
  idx.for_each([&](std::byte* b) {
    EXPECT_TRUE(visited.insert(b).second);
  });
  EXPECT_EQ(visited, inserted);
}

TEST_P(FreeIndexAllDdts, RandomChurnKeepsStructureConsistent) {
  DynamicIndex idx = make_index();
  std::mt19937 rng(42);
  std::vector<std::byte*> inside;
  for (int step = 0; step < 2000; ++step) {
    const bool insert = inside.empty() || rng() % 2 == 0;
    if (insert) {
      std::byte* b = farm_.make(32 + 8 * (rng() % 64));
      idx.insert(b);
      inside.push_back(b);
    } else if (rng() % 2 == 0) {
      const std::size_t i = rng() % inside.size();
      idx.remove(inside[i]);
      inside.erase(inside.begin() + static_cast<long>(i));
    } else {
      std::byte* b = idx.take_fit(32 + 8 * (rng() % 64),
                                  FitAlgorithm::kBestFit);
      if (b != nullptr) {
        inside.erase(std::find(inside.begin(), inside.end(), b));
      }
    }
    ASSERT_EQ(idx.count(), inside.size());
  }
  std::size_t visited = 0;
  idx.for_each([&](std::byte*) { ++visited; });
  EXPECT_EQ(visited, inside.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllStructures, FreeIndexAllDdts,
    ::testing::Values(
        IndexParam{BlockStructure::kSinglyLinkedList, FreeListOrder::kLIFO},
        IndexParam{BlockStructure::kSinglyLinkedList, FreeListOrder::kFIFO},
        IndexParam{BlockStructure::kSinglyLinkedList,
                   FreeListOrder::kAddressOrdered},
        IndexParam{BlockStructure::kSinglyLinkedList,
                   FreeListOrder::kSizeOrdered},
        IndexParam{BlockStructure::kDoublyLinkedList, FreeListOrder::kLIFO},
        IndexParam{BlockStructure::kDoublyLinkedList, FreeListOrder::kFIFO},
        IndexParam{BlockStructure::kDoublyLinkedList,
                   FreeListOrder::kAddressOrdered},
        IndexParam{BlockStructure::kDoublyLinkedList,
                   FreeListOrder::kSizeOrdered},
        IndexParam{BlockStructure::kSinglySortedBySize,
                   FreeListOrder::kSizeOrdered},
        IndexParam{BlockStructure::kDoublySortedBySize,
                   FreeListOrder::kSizeOrdered},
        IndexParam{BlockStructure::kSizeBinaryTree,
                   FreeListOrder::kSizeOrdered}),
    param_name);

// --- fit-specific behaviour (deterministic on an unsorted doubly list) ---

class FitSemantics : public ::testing::Test {
 protected:
  FitSemantics()
      : idx_(BlockStructure::kDoublyLinkedList, FreeListOrder::kFIFO,
             farm_.layout(), 0) {
    // FIFO keeps insertion order: 64, 32, 128, 48, 64.
    for (std::size_t s : {64u, 32u, 128u, 48u, 64u}) {
      blocks_.push_back(farm_.make(s));
      idx_.insert(blocks_.back());
    }
  }
  BlockFarm farm_;
  std::vector<std::byte*> blocks_;
  DynamicIndex idx_;
};

TEST_F(FitSemantics, FirstFitTakesFirstInListOrder) {
  EXPECT_EQ(idx_.take_fit(40, FitAlgorithm::kFirstFit), blocks_[0])
      << "first block >= 40 in FIFO order is the leading 64";
}

TEST_F(FitSemantics, BestFitTakesTightest) {
  EXPECT_EQ(idx_.take_fit(40, FitAlgorithm::kBestFit), blocks_[3])
      << "tightest block >= 40 is the 48";
}

TEST_F(FitSemantics, WorstFitTakesLargest) {
  EXPECT_EQ(idx_.take_fit(40, FitAlgorithm::kWorstFit), blocks_[2])
      << "largest block is the 128";
}

TEST_F(FitSemantics, ExactFitPrefersExactSize) {
  EXPECT_EQ(idx_.take_fit(48, FitAlgorithm::kExactFit), blocks_[3]);
}

TEST_F(FitSemantics, ExactFitDegradesToBestWhenNoExact) {
  EXPECT_EQ(idx_.take_fit(50, FitAlgorithm::kExactFit), blocks_[0])
      << "smallest block >= 50 is the leading 64";
}

TEST_F(FitSemantics, NextFitRovesPastLastTake) {
  EXPECT_EQ(idx_.take_fit(40, FitAlgorithm::kNextFit), blocks_[0]);
  EXPECT_EQ(idx_.take_fit(40, FitAlgorithm::kNextFit), blocks_[2])
      << "cursor resumes after the 64: next fitting block is the 128";
  EXPECT_EQ(idx_.take_fit(40, FitAlgorithm::kNextFit), blocks_[3]);
  EXPECT_EQ(idx_.take_fit(40, FitAlgorithm::kNextFit), blocks_[4]);
  EXPECT_EQ(idx_.take_fit(40, FitAlgorithm::kNextFit), nullptr)
      << "only the 32 remains";
}

TEST(FreeIndexSorted, SortedListKeepsAscendingSizes) {
  BlockFarm farm;
  DynamicIndex idx(BlockStructure::kDoublySortedBySize,
                   FreeListOrder::kSizeOrdered, farm.layout(), 0);
  for (std::size_t s : {128u, 32u, 64u, 48u, 256u, 40u}) {
    idx.insert(farm.make(s));
  }
  // take_fit(kFirstFit) on a sorted list is best fit: ascending takes.
  std::vector<std::size_t> sizes;
  while (!idx.empty()) {
    std::byte* b = idx.take_fit(1, FitAlgorithm::kFirstFit);
    sizes.push_back(farm.layout().read_size(b));
  }
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
}

TEST(FreeIndexSorted, BstOverridesOrderToSizeOrdered) {
  BlockFarm farm;
  DynamicIndex idx(BlockStructure::kSizeBinaryTree, FreeListOrder::kLIFO,
                   farm.layout(), 0);
  EXPECT_EQ(idx.order(), FreeListOrder::kSizeOrdered)
      << "self-ordering DDTs force the C2 leaf (linked decision)";
}

TEST(FreeIndexWork, ScanStepsGrowWithListSearches) {
  BlockFarm farm;
  DynamicIndex idx(BlockStructure::kSinglyLinkedList, FreeListOrder::kFIFO,
                   farm.layout(), 0);
  for (int i = 0; i < 100; ++i) idx.insert(farm.make(32));
  idx.insert(farm.make(4096));  // FIFO: the big block lands at the tail
  const std::uint64_t before = idx.scan_steps();
  // Finding the one 4 KiB block behind 100 small ones costs a full scan.
  EXPECT_NE(idx.take_fit(4096, FitAlgorithm::kFirstFit), nullptr);
  EXPECT_GE(idx.scan_steps() - before, 100u);
}

}  // namespace
}  // namespace dmm::alloc
