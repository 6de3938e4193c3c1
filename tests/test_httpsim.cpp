#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <map>
#include <random>
#include <string>

#include "httpsim/catalog.h"
#include "httpsim/cdn_chain.h"
#include "httpsim/lru_cache.h"
#include "httpsim/workload.h"
#include "media/content.h"

namespace demuxabr {
namespace {

TEST(LruCache, BasicHitMiss) {
  LruCache cache(100);
  EXPECT_FALSE(cache.get("a"));
  cache.put("a", 10);
  EXPECT_TRUE(cache.get("a"));
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_EQ(cache.used_bytes(), 10);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache cache(30);
  cache.put("a", 10);
  cache.put("b", 10);
  cache.put("c", 10);
  cache.get("a");       // touch a: b becomes LRU
  cache.put("d", 10);   // evicts b
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_TRUE(cache.contains("c"));
  EXPECT_TRUE(cache.contains("d"));
  EXPECT_EQ(cache.eviction_count(), 1u);
}

TEST(LruCache, UnboundedNeverEvicts) {
  LruCache cache(0);
  for (int i = 0; i < 1000; ++i) cache.put(std::string("k").append(std::to_string(i)), 1000);
  EXPECT_EQ(cache.object_count(), 1000u);
  EXPECT_EQ(cache.eviction_count(), 0u);
}

TEST(LruCache, ObjectLargerThanCapacityIgnored) {
  LruCache cache(10);
  cache.put("big", 100);
  EXPECT_FALSE(cache.contains("big"));
  EXPECT_EQ(cache.used_bytes(), 0);
}

TEST(LruCache, DuplicatePutTouchesWithoutDoubleCount) {
  LruCache cache(100);
  cache.put("a", 10);
  cache.put("a", 10);
  EXPECT_EQ(cache.used_bytes(), 10);
  EXPECT_EQ(cache.object_count(), 1u);
}

TEST(LruCache, ClearResets) {
  LruCache cache(100);
  cache.put("a", 10);
  cache.clear();
  EXPECT_EQ(cache.used_bytes(), 0);
  EXPECT_FALSE(cache.contains("a"));
}

TEST(LruCache, ResizingPutUpdatesUsedBytes) {
  LruCache cache(100);
  cache.put("a", 10);
  cache.put("b", 20);
  cache.put("a", 50);  // same key, new size: used = 50 + 20, no eviction
  EXPECT_EQ(cache.used_bytes(), 70);
  EXPECT_EQ(cache.object_count(), 2u);
  EXPECT_EQ(cache.eviction_count(), 0u);
}

TEST(LruCache, ResizingPutRunsEviction) {
  LruCache cache(100);
  cache.put("a", 10);
  cache.put("b", 20);
  cache.put("a", 90);  // growing a past capacity evicts LRU entry b
  EXPECT_TRUE(cache.contains("a"));
  EXPECT_FALSE(cache.contains("b"));
  EXPECT_EQ(cache.used_bytes(), 90);
  EXPECT_EQ(cache.eviction_count(), 1u);
}

TEST(LruCache, GrowingEntryPastCapacityEvictsItself) {
  LruCache cache(100);
  cache.put("a", 10);
  cache.put("a", 150);  // no resident set can hold it: cache ends empty
  EXPECT_FALSE(cache.contains("a"));
  EXPECT_EQ(cache.used_bytes(), 0);
  EXPECT_EQ(cache.object_count(), 0u);
}

// Randomized differential test: drive the cache and a transparent oracle
// (recency list + key->iterator map, exact same admit/touch/evict rules)
// with the same seeded op stream and compare every observable after every
// step. Catches bookkeeping drift (the stale-used_bytes resize bug) that
// targeted cases miss.
TEST(LruCache, RandomizedOpsMatchRecencyListOracle) {
  constexpr std::int64_t kCapacity = 100;
  constexpr int kKeys = 20;
  LruCache cache(kCapacity);

  struct OracleEntry {
    std::string key;
    std::int64_t bytes = 0;
  };
  std::list<OracleEntry> recency;  // front = MRU
  std::map<std::string, std::list<OracleEntry>::iterator> index;
  std::int64_t oracle_used = 0;
  std::size_t oracle_evictions = 0;
  const auto oracle_evict_until_fits = [&](std::int64_t incoming) {
    while (!recency.empty() && oracle_used + incoming > kCapacity) {
      oracle_used -= recency.back().bytes;
      index.erase(recency.back().key);
      recency.pop_back();
      ++oracle_evictions;
    }
  };

  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<int> key_dist(0, kKeys - 1);
  std::uniform_int_distribution<std::int64_t> size_dist(1, 30);
  std::uniform_int_distribution<int> op_dist(0, 2);
  for (int step = 0; step < 5000; ++step) {
    const std::string key = "obj" + std::to_string(key_dist(rng));
    if (op_dist(rng) == 0) {  // get: touch on hit
      const bool hit = cache.get(key);
      const auto it = index.find(key);
      EXPECT_EQ(hit, it != index.end()) << "step " << step;
      if (it != index.end()) recency.splice(recency.begin(), recency, it->second);
    } else {  // put: admit / touch-and-resize
      const std::int64_t bytes = size_dist(rng);
      cache.put(key, bytes);
      const auto it = index.find(key);
      if (it != index.end()) {
        recency.splice(recency.begin(), recency, it->second);
        oracle_used += bytes - it->second->bytes;
        it->second->bytes = bytes;
        oracle_evict_until_fits(0);
      } else if (bytes <= kCapacity) {
        oracle_evict_until_fits(bytes);
        recency.push_front({key, bytes});
        index[key] = recency.begin();
        oracle_used += bytes;
      }
    }

    // Invariants + full observable state, every step.
    std::int64_t sum = 0;
    for (const OracleEntry& entry : recency) sum += entry.bytes;
    ASSERT_EQ(oracle_used, sum) << "oracle drift at step " << step;
    ASSERT_LE(cache.used_bytes(), kCapacity) << "step " << step;
    ASSERT_EQ(cache.used_bytes(), oracle_used) << "step " << step;
    ASSERT_EQ(cache.object_count(), index.size()) << "step " << step;
    ASSERT_EQ(cache.eviction_count(), oracle_evictions) << "step " << step;
    for (int k = 0; k < kKeys; ++k) {
      const std::string probe = "obj" + std::to_string(k);
      ASSERT_EQ(cache.contains(probe), index.count(probe) == 1)
          << "step " << step << " key " << probe;
    }
  }
}

class CatalogTest : public ::testing::Test {
 protected:
  Content content_ = make_drama_content();
};

TEST_F(CatalogTest, DemuxedObjectCount) {
  const ObjectCatalog catalog = build_demuxed_catalog(content_);
  // (6 video + 3 audio) tracks x 75 chunks.
  EXPECT_EQ(catalog.object_count(), 9u * 75u);
  EXPECT_EQ(catalog.total_bytes(), content_.total_bytes());
}

TEST_F(CatalogTest, MuxedObjectCount) {
  const ObjectCatalog catalog = build_muxed_catalog(content_);
  // 6 x 3 combinations x 75 chunks.
  EXPECT_EQ(catalog.object_count(), 18u * 75u);
}

TEST_F(CatalogTest, MuxedObjectIsSumOfComponents) {
  const ObjectCatalog muxed = build_muxed_catalog(content_);
  const std::int64_t expected =
      content_.chunk("V2", 5).size_bytes + content_.chunk("A3", 5).size_bytes;
  EXPECT_EQ(muxed.size_of(chunk_object_key("V2+A3", 5)), expected);
}

TEST_F(CatalogTest, StorageComparisonFavorsDemuxed) {
  // §1: M x N muxed tracks vs M + N demuxed tracks.
  const StorageReport report = compare_storage(content_);
  EXPECT_GT(report.muxed_bytes, report.demuxed_bytes);
  EXPECT_GT(report.muxed_to_demuxed_ratio(), 1.5);
  EXPECT_EQ(report.demuxed_objects, 675u);
  EXPECT_EQ(report.muxed_objects, 1350u);
}

TEST_F(CatalogTest, UnknownKeyReportsNegative) {
  const ObjectCatalog catalog = build_demuxed_catalog(content_);
  EXPECT_EQ(catalog.size_of("nope/00000"), -1);
  EXPECT_FALSE(catalog.contains("nope/00000"));
}

TEST_F(CatalogTest, CdnServesHitsFromCacheAfterFirstFetch) {
  const ObjectCatalog catalog = build_demuxed_catalog(content_);
  CdnChain cdn(&catalog, 0, -1);  // single-tier, unbounded edge
  const std::string key = chunk_object_key("V1", 0);
  const auto first = cdn.fetch(key);
  EXPECT_EQ(first.served_by, CdnChain::ServedBy::kOrigin);
  const auto second = cdn.fetch(key);
  EXPECT_EQ(second.served_by, CdnChain::ServedBy::kEdge);
  EXPECT_EQ(cdn.stats().edge_hits, 1);
  EXPECT_EQ(cdn.stats().origin_fetches, 1);
  EXPECT_EQ(cdn.stats().origin_bytes, first.bytes);
}

TEST_F(CatalogTest, CdnUnknownObject) {
  const ObjectCatalog catalog = build_demuxed_catalog(content_);
  CdnChain cdn(&catalog, 0, -1);
  const auto result = cdn.fetch("missing/object");
  EXPECT_EQ(result.served_by, CdnChain::ServedBy::kNotFound);
  EXPECT_EQ(cdn.stats().requests, 0);
}

// The paper's CDN argument (§1): with users differing only in the *other*
// component, demuxed storage turns those requests into cache hits.
TEST_F(CatalogTest, DemuxedModeImprovesCacheHitRatio) {
  WorkloadConfig config;
  config.num_users = 100;
  const auto results = run_cdn_comparison(content_, config);
  ASSERT_EQ(results.size(), 2u);
  const WorkloadResult& demuxed = results[0];
  const WorkloadResult& muxed = results[1];
  EXPECT_EQ(demuxed.mode, StorageMode::kDemuxed);
  EXPECT_GT(demuxed.cdn.hit_ratio(), muxed.cdn.hit_ratio());
  EXPECT_LT(demuxed.origin_storage_bytes, muxed.origin_storage_bytes);
}

TEST_F(CatalogTest, DemuxedModeReducesOriginEgressWithBoundedCache) {
  WorkloadConfig config;
  config.num_users = 150;
  config.cache_fraction = 0.5;
  const auto results = run_cdn_comparison(content_, config);
  EXPECT_LT(results[0].cdn.origin_bytes, results[1].cdn.origin_bytes);
}

TEST_F(CatalogTest, WorkloadDeterministicPerSeed) {
  WorkloadConfig config;
  config.num_users = 50;
  const auto a = run_cdn_workload(content_, StorageMode::kDemuxed, config);
  const auto b = run_cdn_workload(content_, StorageMode::kDemuxed, config);
  EXPECT_EQ(a.cdn.edge_hits, b.cdn.edge_hits);
  EXPECT_EQ(a.cdn.origin_bytes, b.cdn.origin_bytes);
}

TEST(CdnStats, RatiosHandleZeroRequests) {
  const CdnChain::Stats stats;
  EXPECT_DOUBLE_EQ(stats.hit_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(stats.byte_hit_ratio(), 0.0);
}

TEST(ChunkObjectKey, Format) {
  EXPECT_EQ(chunk_object_key("V3", 42), "V3/00042");
  EXPECT_EQ(chunk_object_key("V3+A1", 0), "V3+A1/00000");
}

}  // namespace
}  // namespace demuxabr
