#include "httpsim/cdn_chain.h"

#include <gtest/gtest.h>

#include "httpsim/workload.h"
#include "media/content.h"
#include "util/rng.h"

namespace demuxabr {
namespace {

class CdnChainTest : public ::testing::Test {
 protected:
  Content content_ = make_drama_content();
  ObjectCatalog catalog_ = build_demuxed_catalog(content_);
};

TEST_F(CdnChainTest, ColdFetchComesFromOriginAndFillsBothTiers) {
  CdnChain chain(&catalog_, 0, 0);
  const std::string key = chunk_object_key("V1", 0);
  const auto first = chain.fetch(key);
  EXPECT_EQ(first.served_by, CdnChain::ServedBy::kOrigin);
  EXPECT_TRUE(chain.edge().contains(key));
  EXPECT_TRUE(chain.regional()->contains(key));
  const auto second = chain.fetch(key);
  EXPECT_EQ(second.served_by, CdnChain::ServedBy::kEdge);
}

TEST_F(CdnChainTest, RegionalServesEdgeEvictions) {
  // Tiny edge, unbounded regional: after the edge evicts, the regional
  // still has the object.
  const std::int64_t one_chunk = catalog_.size_of(chunk_object_key("V1", 0));
  CdnChain chain(&catalog_, one_chunk + 1, 0);
  const std::string a = chunk_object_key("V1", 0);
  const std::string b = chunk_object_key("V1", 1);
  (void)chain.fetch(a);  // origin, fills edge+regional
  (void)chain.fetch(b);  // origin, evicts `a` from the tiny edge
  const auto again = chain.fetch(a);
  EXPECT_EQ(again.served_by, CdnChain::ServedBy::kRegional);
  EXPECT_EQ(chain.stats().regional_hits, 1);
}

TEST_F(CdnChainTest, StatsSurfaceEvictionsAndFillPolicy) {
  const std::int64_t one_chunk = catalog_.size_of(chunk_object_key("V1", 0));
  CdnChain chain(&catalog_, one_chunk + 1, 0);
  (void)chain.fetch(chunk_object_key("V1", 0));
  (void)chain.fetch(chunk_object_key("V1", 1));  // evicts chunk 0 from edge
  const CdnChain::Stats stats = chain.stats();
  EXPECT_EQ(stats.edge_evictions, 1u);
  EXPECT_EQ(stats.regional_evictions, 0u);
  EXPECT_EQ(stats.fill, FillPolicy::kBothTiers);
  EXPECT_STREQ(fill_policy_name(stats.fill), "both_tiers");
}

TEST_F(CdnChainTest, EdgeOnlyFillLeavesRegionalCold) {
  CdnChain chain(&catalog_, 0, 0, FillPolicy::kEdgeOnly);
  const std::string key = chunk_object_key("V2", 3);
  (void)chain.fetch(key);
  EXPECT_TRUE(chain.edge().contains(key));
  EXPECT_FALSE(chain.regional()->contains(key));
  EXPECT_EQ(chain.stats().fill, FillPolicy::kEdgeOnly);
  EXPECT_STREQ(fill_policy_name(FillPolicy::kEdgeOnly), "edge_only");
  // Re-fetch after an edge eviction must go back to the origin: nothing
  // was staged in the regional tier.
  const std::int64_t one_chunk = catalog_.size_of(key);
  CdnChain tiny(&catalog_, one_chunk + 1, 0, FillPolicy::kEdgeOnly);
  (void)tiny.fetch(key);
  (void)tiny.fetch(chunk_object_key("V2", 4));  // evicts `key` from edge
  EXPECT_EQ(tiny.fetch(key).served_by, CdnChain::ServedBy::kOrigin);
  EXPECT_EQ(tiny.stats().regional_hits, 0);
}

TEST_F(CdnChainTest, LookupCountsAndFillAppliesThePolicy) {
  const std::string key = chunk_object_key("V3", 7);
  // lookup() counts the request and touches, but fills nothing.
  CdnChain chain(&catalog_, 0, 0);
  EXPECT_EQ(chain.lookup(key).served_by, CdnChain::ServedBy::kOrigin);
  EXPECT_EQ(chain.lookup(key).served_by, CdnChain::ServedBy::kOrigin);
  EXPECT_FALSE(chain.edge().contains(key));
  EXPECT_FALSE(chain.regional()->contains(key));
  EXPECT_EQ(chain.stats().requests, 2);
  EXPECT_EQ(chain.stats().origin_fetches, 2);
  // An edge hit fills nothing; fill() after kOrigin fills both tiers under
  // kBothTiers, and no counter moves.
  chain.fill(key, CdnChain::ServedBy::kEdge);
  EXPECT_FALSE(chain.edge().contains(key));
  chain.fill(key, CdnChain::ServedBy::kOrigin);
  EXPECT_TRUE(chain.edge().contains(key));
  EXPECT_TRUE(chain.regional()->contains(key));
  EXPECT_EQ(chain.stats().requests, 2);
  EXPECT_EQ(chain.lookup(key).served_by, CdnChain::ServedBy::kEdge);

  // fill() after kOrigin fills only the edge under kEdgeOnly.
  CdnChain edge_only(&catalog_, 0, 0, FillPolicy::kEdgeOnly);
  edge_only.fill(key, CdnChain::ServedBy::kOrigin);
  EXPECT_TRUE(edge_only.edge().contains(key));
  EXPECT_FALSE(edge_only.regional()->contains(key));

  // fill() after kRegional fills only the edge.
  CdnChain regional_hit(&catalog_, 0, 0);
  regional_hit.fill(key, CdnChain::ServedBy::kRegional);
  EXPECT_TRUE(regional_hit.edge().contains(key));
  EXPECT_FALSE(regional_hit.regional()->contains(key));

  // A chain without a regional tier never reports a regional hit: an object
  // the tiny edge evicted comes back from the origin.
  const std::int64_t one_chunk = catalog_.size_of(key);
  CdnChain single(&catalog_, one_chunk + 1, -1);
  EXPECT_EQ(single.regional(), nullptr);
  (void)single.fetch(key);
  (void)single.fetch(chunk_object_key("V3", 8));  // evicts `key` from the edge
  EXPECT_EQ(single.fetch(key).served_by, CdnChain::ServedBy::kOrigin);
  EXPECT_EQ(single.stats().regional_hits, 0);
  EXPECT_EQ(single.stats().regional_evictions, 0u);
}

TEST_F(CdnChainTest, UnknownKeyNotCounted) {
  CdnChain chain(&catalog_, 0, 0);
  const auto result = chain.fetch("nope");
  EXPECT_EQ(result.served_by, CdnChain::ServedBy::kNotFound);
  EXPECT_EQ(chain.stats().requests, 0);
}

TEST_F(CdnChainTest, StatsAddUp) {
  CdnChain chain(&catalog_, 0, 0);
  Rng rng(3);
  const auto& video = content_.ladder().video();
  for (int i = 0; i < 500; ++i) {
    const auto& track = video[static_cast<std::size_t>(rng.uniform_int(0, 5))];
    const int chunk = static_cast<int>(rng.uniform_int(0, 9));
    (void)chain.fetch(chunk_object_key(track.id, chunk));
  }
  const auto& stats = chain.stats();
  EXPECT_EQ(stats.requests, 500);
  EXPECT_EQ(stats.edge_hits + stats.regional_hits + stats.origin_fetches, 500);
  // With unbounded caches the regional tier never gets hit (the edge holds
  // everything it ever saw).
  EXPECT_EQ(stats.regional_hits, 0);
}

TEST_F(CdnChainTest, DemuxedBeatsMuxedAcrossTheChain) {
  // Same viewer demand against demuxed and muxed catalogs with a bounded
  // edge: the demuxed chain pulls fewer bytes from the origin.
  const ObjectCatalog muxed = build_muxed_catalog(content_);
  const std::int64_t edge_cap = catalog_.total_bytes() / 4;
  const std::int64_t regional_cap = catalog_.total_bytes();
  CdnChain demuxed_chain(&catalog_, edge_cap, regional_cap);
  CdnChain muxed_chain(&muxed, edge_cap, regional_cap);
  WorkloadConfig config;
  config.num_users = 60;
  replay_workload(content_, StorageMode::kDemuxed, config, demuxed_chain);
  replay_workload(content_, StorageMode::kMuxed, config, muxed_chain);
  EXPECT_LT(demuxed_chain.stats().origin_bytes, muxed_chain.stats().origin_bytes);
}

}  // namespace
}  // namespace demuxabr
