// Cache-aware fleets (fleet/cdn_fleet.h): CDN edge caches as first-class
// topology nodes, in four tiers:
//
//  1. Routing effect: an edge hit rides the derived client→edge prefix
//     channel, so the origin-side link of a cached chain carries strictly
//     fewer bytes than the identical cache-less run, while a cached *last*
//     hop reuses the full channel and leaves client outcomes untouched.
//  2. Determinism: fleet fingerprints with caches enabled are byte-identical
//     between the barrier and event-heap engines, and between the serial
//     whole-topology path (threads=1) and sharded runs at threads {2, 8} in
//     both full-log and streaming-metrics mode — cache state is shard-local
//     and all mutations happen inside begin_step (sim/flow_router.h).
//  3. Accounting: per-node CdnStats counters add up and residency respects
//     the configured capacity.
//  4. The paper's §1 storage axis at fleet scale: a demuxed origin catalog
//     gets more out of the same edge capacity than muxed A×V combos.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/muxed_player.h"
#include "experiments/scenarios.h"
#include "fleet/cdn_fleet.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/scheduler.h"
#include "httpsim/catalog.h"
#include "net/topology.h"
#include "players/exoplayer.h"
#include "util/strings.h"

namespace demuxabr::fleet {
namespace {

namespace ex = demuxabr::experiments;

std::unique_ptr<PlayerAdapter> make_exo() {
  return std::make_unique<ExoPlayerModel>();
}

std::unique_ptr<PlayerAdapter> make_muxed() {
  return std::make_unique<MuxedPlayer>();
}

FleetConfig base_config(int clients, std::uint64_t seed = 7) {
  FleetConfig config;
  config.client_count = clients;
  config.seed = seed;
  config.players.push_back({"exoplayer", &make_exo, 1.0});
  config.session.max_sim_time_s = 1800.0;
  return config;
}

/// K causally independent access→core chains with an edge cache on each
/// access link (the client-side hop, so hits skip the core). capacity 0 =
/// unbounded edge; regional < 0 = single-tier.
TopologySpec cached_chains(int k, double access_kbps, double core_kbps,
                           std::int64_t cache_bytes,
                           std::int64_t regional_bytes = -1) {
  TopologySpec spec;
  for (int i = 0; i < k; ++i) {
    const std::size_t access =
        spec.add_link(format("access-%d", i),
                      BandwidthTrace::constant(access_kbps + 300.0 * i));
    const std::size_t core =
        spec.add_link(format("core-%d", i), BandwidthTrace::constant(core_kbps));
    spec.add_path(format("chain-%d", i), {access, core});
    spec.links[access].cache = CacheSpec{cache_bytes, regional_bytes};
  }
  return spec;
}

// --- 1. Routing effect. ---

TEST(CacheFleet, EdgeHitsRelieveTheOriginSideLink) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "cdn-route");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  FleetConfig config = base_config(8, 11);
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 2.0;

  config.topology = cached_chains(1, 2400.0, 4800.0, 0);  // unbounded edge
  const FleetResult cached =
      run_fleet(setup.content, setup.view, unused, config);

  TopologySpec plain = *config.topology;
  plain.links[0].cache.reset();
  config.topology = plain;
  const FleetResult uncached =
      run_fleet(setup.content, setup.view, unused, config);

  ASSERT_EQ(cached.cdns.size(), 1u);
  const CdnStats& cdn = cached.cdns[0];
  EXPECT_EQ(cdn.link_name, "access-0");
  EXPECT_GT(cdn.edge_hits, 0);
  EXPECT_GT(cdn.origin_fetches, 0);  // cold misses warmed the cache
  EXPECT_TRUE(uncached.cdns.empty());

  // Every edge hit skipped the core link, so the core carried strictly
  // fewer bytes than in the cache-less run; the access link carried every
  // flow either way.
  ASSERT_EQ(cached.links.size(), 2u);
  EXPECT_LT(cached.links[1].delivered_kbit, uncached.links[1].delivered_kbit);
  EXPECT_LT(cached.links[1].flow_seconds, uncached.links[1].flow_seconds);
  EXPECT_GT(cached.links[0].delivered_kbit, 0.0);
}

TEST(CacheFleet, CachedLastHopLeavesClientOutcomesUntouched) {
  // A cache on a path's *last* hop cannot shorten any route (the prefix is
  // the whole path), so the run is numerically identical to the cache-less
  // fleet — only the CdnStats plane is new.
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "cdn-lasthop");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  FleetConfig config = base_config(6, 13);
  // Staggered arrivals: lockstep-identical clients would all miss the same
  // key in the same step before any fill lands (fills defer to the next
  // begin_step), legitimately hitting nothing.
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 4.0;

  TopologySpec spec;
  const std::size_t only =
      spec.add_link("bottleneck", BandwidthTrace::constant(3000.0));
  spec.add_path("direct", {only});
  spec.links[only].cache = CacheSpec{0, -1};
  config.topology = spec;
  const FleetResult cached =
      run_fleet(setup.content, setup.view, unused, config);

  spec.links[only].cache.reset();
  config.topology = spec;
  const FleetResult plain =
      run_fleet(setup.content, setup.view, unused, config);

  EXPECT_EQ(cached.client_digest, plain.client_digest);
  EXPECT_DOUBLE_EQ(cached.end_time_s, plain.end_time_s);
  ASSERT_EQ(cached.cdns.size(), 1u);
  EXPECT_GT(cached.cdns[0].edge_hits, 0);
}

// --- 2. Determinism. ---

TEST(CacheFleet, BarrierAndEventHeapFingerprintsIdenticalWithCaches) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "cdn-engines");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  FleetConfig config = base_config(10, 17);
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.4;
  config.churn.leave_probability = 0.3;
  config.churn.min_watch_s = 20.0;
  config.churn.max_watch_s = 90.0;
  // Bounded edges + a regional tier so evictions and every stats counter
  // participate in the comparison.
  const auto catalog = make_fleet_catalog(setup.content, StorageMode::kDemuxed);
  config.topology =
      cached_chains(2, 1800.0, 3600.0, catalog->total_bytes() / 6,
                    catalog->total_bytes() / 2);
  config.threads = 1;

  config.engine = Engine::kBarrier;
  const FleetResult barrier =
      run_fleet(setup.content, setup.view, unused, config);
  config.engine = Engine::kEventHeap;
  const FleetResult heap = run_fleet(setup.content, setup.view, unused, config);

  ASSERT_FALSE(barrier.cdns.empty());
  EXPECT_EQ(fleet_fingerprint(heap), fleet_fingerprint(barrier));
  EXPECT_EQ(heap.client_digest, barrier.client_digest);
}

TEST(CacheFleet, ShardedFingerprintByteIdenticalAcrossThreadCounts) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "cdn-threads");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  FleetConfig config = base_config(12, 19);
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.4;
  config.churn.leave_probability = 0.3;
  config.churn.min_watch_s = 20.0;
  config.churn.max_watch_s = 90.0;
  const auto catalog = make_fleet_catalog(setup.content, StorageMode::kDemuxed);
  config.topology = cached_chains(4, 1800.0, 3600.0, catalog->total_bytes() / 8);

  config.threads = 1;  // serial whole-topology reference
  const FleetResult serial =
      run_fleet(setup.content, setup.view, unused, config);
  const std::string expected = fleet_fingerprint(serial);
  ASSERT_EQ(serial.cdns.size(), 4u);

  for (const int threads : {2, 8}) {
    config.threads = threads;
    const FleetResult sharded =
        run_fleet(setup.content, setup.view, unused, config);
    EXPECT_EQ(fleet_fingerprint(sharded), expected) << "threads=" << threads;
    EXPECT_EQ(sharded.client_digest, serial.client_digest)
        << "threads=" << threads;
    // The merged cdn rows come back in ascending global link index with
    // every integer counter equal to the serial run's.
    ASSERT_EQ(sharded.cdns.size(), serial.cdns.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.cdns.size(); ++i) {
      EXPECT_EQ(sharded.cdns[i].link, serial.cdns[i].link);
      EXPECT_EQ(sharded.cdns[i].edge_hits, serial.cdns[i].edge_hits);
      EXPECT_EQ(sharded.cdns[i].edge_evictions, serial.cdns[i].edge_evictions);
      EXPECT_EQ(sharded.cdns[i].edge_used_bytes, serial.cdns[i].edge_used_bytes);
    }
  }
}

TEST(CacheFleet, StreamingModeFingerprintIdenticalAcrossThreadCounts) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "cdn-streaming");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  FleetConfig config = base_config(12, 29);
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 3.0;
  const auto catalog = make_fleet_catalog(setup.content, StorageMode::kDemuxed);
  config.topology = cached_chains(3, 2000.0, 4200.0, catalog->total_bytes() / 8);
  config.streaming.client_threshold = 1;  // streaming mode always on

  config.threads = 1;
  const FleetResult serial =
      run_fleet(setup.content, setup.view, unused, config);
  ASSERT_TRUE(serial.streaming.has_value());
  ASSERT_EQ(serial.cdns.size(), 3u);
  const std::string expected = fleet_fingerprint(serial);

  for (const int threads : {2, 8}) {
    config.threads = threads;
    const FleetResult sharded =
        run_fleet(setup.content, setup.view, unused, config);
    EXPECT_EQ(fleet_fingerprint(sharded), expected) << "threads=" << threads;
  }
}

// --- 3. Accounting. ---

TEST(CacheFleet, StatsAddUpAndResidencyRespectsCapacity) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "cdn-stats");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  FleetConfig config = base_config(8, 23);
  const auto catalog = make_fleet_catalog(setup.content, StorageMode::kDemuxed);
  // A handful of chunks' worth: big enough to admit any single object,
  // far below the working set, so the edge must churn.
  std::int64_t max_chunk = 0;
  for (const auto& track : setup.content.ladder().video()) {
    for (int chunk = 0; chunk < setup.content.num_chunks(); ++chunk) {
      max_chunk =
          std::max(max_chunk, catalog->size_of(chunk_object_key(track.id, chunk)));
    }
  }
  ASSERT_GT(max_chunk, 0);
  const std::int64_t capacity = 4 * max_chunk;
  config.topology = cached_chains(2, 2200.0, 4400.0, capacity);

  const FleetResult result =
      run_fleet(setup.content, setup.view, unused, config);
  ASSERT_EQ(result.cdns.size(), 2u);
  for (const CdnStats& cdn : result.cdns) {
    EXPECT_GT(cdn.requests, 0);
    EXPECT_EQ(cdn.requests,
              cdn.edge_hits + cdn.regional_hits + cdn.origin_fetches);
    EXPECT_EQ(cdn.uncacheable, 0);  // demuxed players vs demuxed catalog
    EXPECT_EQ(cdn.regional_hits, 0);  // single-tier node
    EXPECT_GT(cdn.origin_bytes, 0);
    EXPECT_LE(cdn.edge_used_bytes, capacity);
    EXPECT_GE(cdn.hit_ratio(), 0.0);
    EXPECT_LE(cdn.hit_ratio(), 1.0);
    // Bounded at a tenth of the catalog: a fleet of 4 clients per chain
    // must churn the edge.
    EXPECT_GT(cdn.edge_evictions, 0u);
  }
}

TEST(CacheFleet, MuxedRequestsAgainstDemuxedCatalogAreUncacheable) {
  // Storage-mode mismatch: muxed A×V keys miss the demuxed inventory, so
  // every request is uncacheable and rides the full path untouched.
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "cdn-mismatch");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  FleetConfig config = base_config(4, 31);
  config.players.clear();
  config.players.push_back({"muxed", &make_muxed, 1.0});
  config.cdn.storage = StorageMode::kDemuxed;
  config.topology = cached_chains(1, 2400.0, 4800.0, 0);

  const FleetResult result =
      run_fleet(setup.content, setup.view, unused, config);
  ASSERT_EQ(result.cdns.size(), 1u);
  EXPECT_EQ(result.cdns[0].requests, 0);
  EXPECT_EQ(result.cdns[0].edge_hits, 0);
  EXPECT_GT(result.cdns[0].uncacheable, 0);
}

// --- 4. The storage axis at fleet scale. ---

TEST(CacheFleet, DemuxedStorageGetsMoreOutOfTheSameEdgeCapacity) {
  // Same seeds, same ladder, same bounded edge: the muxed origin publishes
  // A×V combination objects, so the working set inflates and the same
  // capacity yields a worse byte hit ratio than demuxed storage (§1).
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "cdn-storage");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  const auto demuxed_catalog =
      make_fleet_catalog(setup.content, StorageMode::kDemuxed);
  const std::int64_t capacity = demuxed_catalog->total_bytes() / 6;

  FleetConfig config = base_config(10, 37);
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 2.0;
  config.topology = cached_chains(2, 2000.0, 4000.0, capacity);

  const FleetResult demuxed =
      run_fleet(setup.content, setup.view, unused, config);

  config.players.clear();
  config.players.push_back({"muxed", &make_muxed, 1.0});
  config.cdn.storage = StorageMode::kMuxed;
  const FleetResult muxed =
      run_fleet(setup.content, setup.view, unused, config);

  const auto totals = [](const FleetResult& result) {
    CdnStats sum;
    for (const CdnStats& cdn : result.cdns) {
      sum.requests += cdn.requests;
      sum.edge_hits += cdn.edge_hits;
      sum.edge_hit_bytes += cdn.edge_hit_bytes;
      sum.regional_hit_bytes += cdn.regional_hit_bytes;
      sum.origin_bytes += cdn.origin_bytes;
      sum.uncacheable += cdn.uncacheable;
    }
    return sum;
  };
  const CdnStats d = totals(demuxed);
  const CdnStats m = totals(muxed);
  ASSERT_GT(d.requests, 0);
  ASSERT_GT(m.requests, 0);
  EXPECT_EQ(d.uncacheable, 0);
  EXPECT_EQ(m.uncacheable, 0);  // muxed keys against the muxed catalog
  EXPECT_GT(d.byte_hit_ratio(), m.byte_hit_ratio());
}

}  // namespace
}  // namespace demuxabr::fleet
