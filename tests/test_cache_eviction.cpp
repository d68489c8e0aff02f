// The SharedScoreCache growth bound (Limits): a long-running process (the
// dmm_serve daemon) must be able to cap the cache and trust that
//  * the live entry count never exceeds the configured bound — under
//    sequential inserts, concurrent sessions, and snapshot import alike,
//  * small bounds evict in exact LRU order (they collapse to one shard),
//  * every displaced entry is accounted in Stats::evictions,
//  * persisted hits still work across an eviction cycle: what survives in
//    the snapshot is servable after a reload into a bounded cache.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "dmm/alloc/config_rules.h"
#include "dmm/core/eval_engine.h"

namespace dmm::core {
namespace {

using alloc::DmmConfig;

/// Distinct cache keys via distinct trace fingerprints (the key is
/// fingerprint x canonical config) — simpler than enumerating distinct
/// canonical vectors and just as good for bound/recency behaviour.
constexpr std::uint64_t kFp = 0x1000;

SharedScoreCache::Entry entry_for(std::size_t i) {
  SharedScoreCache::Entry e;
  e.sim.peak_footprint = 1000 + i;
  e.work_steps = i;
  return e;
}

/// Inserts entries keyed kFp+0 .. kFp+n-1, all under one session.
void fill(SharedScoreCache& cache, std::size_t n) {
  const DmmConfig cfg = alloc::canonical(alloc::minimal_config());
  for (std::size_t i = 0; i < n; ++i) {
    auto session = cache.begin_search(kFp + i);
    session.insert_canonical(cfg, entry_for(i));
  }
}

/// True iff the key kFp+i is live (counted as a hit; refreshes recency).
bool live(SharedScoreCache& cache, std::size_t i) {
  const DmmConfig cfg = alloc::canonical(alloc::minimal_config());
  auto session = cache.begin_search(kFp + i);
  SharedScoreCache::Entry out;
  return session.lookup_canonical(cfg, &out);
}

TEST(CacheEviction, UnboundedCacheNeverEvicts) {
  SharedScoreCache cache;
  EXPECT_EQ(cache.capacity(), 0u);
  fill(cache, 200);
  EXPECT_EQ(cache.size(), 200u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CacheEviction, EntryBoundHoldsAndEvictionsAreAccounted) {
  SharedScoreCache cache(SharedScoreCache::Limits{.max_entries = 8});
  EXPECT_EQ(cache.capacity(), 8u);
  fill(cache, 50);
  const SharedScoreCache::Stats stats = cache.stats();
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(stats.insertions, 50u);
  // Conservation: every insert is either live or was evicted.
  EXPECT_EQ(stats.evictions, 50u - 8u);
}

TEST(CacheEviction, SmallBoundEvictsInExactLruOrder) {
  // Bounds under kMinEntriesPerBoundedShard collapse to one shard, so
  // recency is global and the eviction order is exact LRU.
  SharedScoreCache cache(SharedScoreCache::Limits{.max_entries = 3});
  fill(cache, 3);                // recency: 0, 1, 2
  EXPECT_TRUE(live(cache, 0));   // touch 0 -> recency: 1, 2, 0
  fill(cache, 4);                // re-inserting 0..2 hits dupes; 3 is new
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_FALSE(live(cache, 1));  // 1 was least-recent -> evicted
  EXPECT_TRUE(live(cache, 0));
  EXPECT_TRUE(live(cache, 2));
  EXPECT_TRUE(live(cache, 3));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheEviction, LookupRefreshesRecency) {
  SharedScoreCache cache(SharedScoreCache::Limits{.max_entries = 2});
  fill(cache, 2);               // recency: 0, 1
  EXPECT_TRUE(live(cache, 0));  // recency: 1, 0
  {
    const DmmConfig cfg = alloc::canonical(alloc::minimal_config());
    auto session = cache.begin_search(kFp + 2);
    session.insert_canonical(cfg, entry_for(2));  // evicts 1, not 0
  }
  EXPECT_TRUE(live(cache, 0));
  EXPECT_FALSE(live(cache, 1));
}

TEST(CacheEviction, ConcurrentSessionsRespectTheBound) {
  // Hammer one bounded cache from several threads (the TSan job runs this
  // with race detection): the bound and the conservation law must hold
  // once the dust settles.
  SharedScoreCache cache(SharedScoreCache::Limits{.max_entries = 16});
  constexpr int kThreads = 4;
  constexpr std::size_t kPerThread = 64;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      const DmmConfig cfg = alloc::canonical(alloc::minimal_config());
      for (std::size_t i = 0; i < kPerThread; ++i) {
        auto session =
            cache.begin_search(kFp + 1000 * static_cast<std::uint64_t>(t) + i);
        SharedScoreCache::Entry out;
        if (!session.lookup_canonical(cfg, &out)) {
          session.insert_canonical(cfg, entry_for(i));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const SharedScoreCache::Stats stats = cache.stats();
  EXPECT_LE(cache.size(), 16u);
  EXPECT_EQ(stats.insertions, kThreads * kPerThread);  // all keys distinct
  EXPECT_EQ(stats.evictions, stats.insertions - cache.size());
}

class CacheEvictionSnapshot : public ::testing::Test {
 protected:
  CacheEvictionSnapshot()
      : path_(::testing::TempDir() + "dmm_cache_eviction_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".snapshot") {
    std::remove(path_.c_str());
  }
  ~CacheEvictionSnapshot() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CacheEvictionSnapshot, BoundedSaveWritesOnlyLiveEntries) {
  SharedScoreCache cache(SharedScoreCache::Limits{.max_entries = 4});
  fill(cache, 10);
  const SnapshotSaveResult saved = cache.save(path_);
  ASSERT_TRUE(saved.saved) << saved.reason;
  EXPECT_EQ(saved.entries_written, 4u);
}

TEST_F(CacheEvictionSnapshot, SnapshotImportHonorsTheBound) {
  {
    SharedScoreCache big;
    fill(big, 20);
    ASSERT_TRUE(big.save(path_).saved);
  }
  SharedScoreCache bounded(SharedScoreCache::Limits{.max_entries = 5});
  const SnapshotLoadResult loaded = bounded.load(path_);
  ASSERT_TRUE(loaded.loaded) << loaded.reason;
  EXPECT_LE(bounded.size(), 5u);
  EXPECT_EQ(bounded.stats().evictions, loaded.entries_imported - 5u);
}

TEST_F(CacheEvictionSnapshot, PersistedHitsStillWorkAfterAnEvictionCycle) {
  // A daemon lifetime in miniature: a bounded cache churns past its bound,
  // saves what survived, and a restarted bounded cache serves those
  // entries as persisted hits.
  {
    SharedScoreCache cache(SharedScoreCache::Limits{.max_entries = 4});
    fill(cache, 10);  // exact LRU: keys 6..9 survive
    ASSERT_TRUE(cache.save(path_).saved);
  }
  SharedScoreCache restarted(SharedScoreCache::Limits{.max_entries = 4});
  ASSERT_TRUE(restarted.load(path_).loaded);
  const DmmConfig cfg = alloc::canonical(alloc::minimal_config());
  for (std::size_t i = 6; i < 10; ++i) {
    auto session = restarted.begin_search(kFp + i);
    SharedScoreCache::Entry out;
    ASSERT_TRUE(session.lookup_canonical(cfg, &out)) << "key " << i;
    EXPECT_EQ(out.sim.peak_footprint, 1000 + i);
    EXPECT_EQ(session.persisted_hits(), 1u) << "key " << i;
  }
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_FALSE(live(restarted, i)) << "evicted key " << i << " resurfaced";
  }
}

}  // namespace
}  // namespace dmm::core
