// Property-based suite: every *valid* decision vector must yield a manager
// that honours the malloc contract — no overlap, no corruption, footprint
// always covers live data, and full cleanup on destruction.
//
// Vectors are drawn from a structured grid over the search space and
// filtered through the interdependency rules, so the suite sweeps wildly
// different managers (buddy-style, segregated-fixed, sorted-list best-fit,
// never-defragmenting, static-budget, ...) through the same invariants.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "dmm/alloc/config.h"
#include "dmm/alloc/custom_manager.h"
#include "dmm/sysmem/system_arena.h"
#include "valid_configs.h"

namespace dmm::alloc {
namespace {

using sysmem::SystemArena;

class ValidConfigProperty : public ::testing::TestWithParam<std::size_t> {
 public:
  static const std::vector<DmmConfig>& configs() {
    static const std::vector<DmmConfig> kConfigs = sample_valid_configs();
    return kConfigs;
  }
};

TEST(ValidConfigSample, GridYieldsAHealthySample) {
  EXPECT_GE(ValidConfigProperty::configs().size(), 40u)
      << "the valid slice of the grid should be sizeable";
}

struct LiveObject {
  void* ptr;
  std::size_t size;
  unsigned char pattern;
};

TEST_P(ValidConfigProperty, MallocContractUnderChurn) {
  const DmmConfig& cfg = configs()[GetParam()];
  SCOPED_TRACE(signature(cfg));
  SystemArena arena;
  {
    CustomManager mgr(arena, cfg);
    std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919u + 17u);
    std::vector<LiveObject> live;
    std::size_t live_bytes = 0;
    const bool static_budget =
        cfg.adaptivity == PoolAdaptivity::kStaticPreallocated;
    for (int step = 0; step < 3000; ++step) {
      const bool do_alloc = live.empty() || rng() % 5 < 3;
      if (do_alloc) {
        // Mix of small, medium and occasionally big requests.
        std::size_t size = 0;
        switch (rng() % 10) {
          case 0: size = 1 + rng() % 8; break;
          case 1: case 2: case 3: size = 8 + rng() % 120; break;
          case 4: case 5: case 6: size = 128 + rng() % 1500; break;
          case 7: case 8: size = 2048 + rng() % 4096; break;
          default: size = 8192 + rng() % 32768; break;
        }
        if (static_budget && size > 2048) size = 64 + rng() % 512;
        void* p = mgr.allocate(size);
        if (p == nullptr) {
          ASSERT_TRUE(static_budget)
              << "only the static budget may refuse an allocation";
          continue;
        }
        const auto pattern =
            static_cast<unsigned char>((rng() % 255) + 1);
        std::memset(p, pattern, size);
        live.push_back({p, size, pattern});
        live_bytes += size;
      } else {
        const std::size_t i = rng() % live.size();
        LiveObject obj = live[i];
        // Content must have survived every other operation (no overlap).
        const auto* bytes = static_cast<const unsigned char*>(obj.ptr);
        bool intact = true;
        for (std::size_t k = 0; k < obj.size && intact; ++k) {
          intact = bytes[k] == obj.pattern;
        }
        ASSERT_TRUE(intact) << "payload corrupted before free";
        mgr.deallocate(obj.ptr);
        live_bytes -= obj.size;
        live[i] = live.back();
        live.pop_back();
      }
      ASSERT_GE(arena.footprint() + (static_budget ? 0u : 0u), live_bytes)
          << "footprint can never be below live payload";
    }
    mgr.check_integrity();
    for (const LiveObject& obj : live) mgr.deallocate(obj.ptr);
    EXPECT_EQ(mgr.stats().live_bytes, 0u);
    if (cfg.adaptivity == PoolAdaptivity::kGrowAndShrink) {
      EXPECT_EQ(arena.footprint(), 0u)
          << "grow+shrink managers must return everything once idle";
    }
  }
  EXPECT_EQ(arena.live_chunks(), 0u) << "destructor must release all chunks";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ValidConfigProperty,
    ::testing::Range<std::size_t>(0, sample_valid_configs().size()));

}  // namespace
}  // namespace dmm::alloc
