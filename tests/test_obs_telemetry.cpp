// Fleet timeline telemetry (obs/telemetry.h) + incident detection
// (obs/incidents.h), in four tiers:
//
//  1. Bin arithmetic: half-open [b·w, (b+1)·w) bins — a sample exactly on a
//     boundary lands in the higher bin; link segments split exactly at bin
//     edges; per-bin session dedup counts each session once per bin.
//  2. Merge algebra: per-shard TimelineShards combined via merge() with a
//     local→global link map equal a single shard that saw everything, and
//     the timeline fingerprint is byte-identical across engines {barrier,
//     event_heap}, thread counts {1, 2, 8} and {full, streaming} metrics
//     modes on real fleet runs.
//  3. Hysteresis: each incident family opens at `enter` sustained for
//     min_bins, closes below `exit`, and reports the peak bin.
//  4. Exporters: NDJSON/CSV/HTML golden substrings, recorded FNV-1a digests
//     of the NDJSON and CSV bytes of three timelines (hand-built, a sharded
//     shared-core fleet, cache-aware chains with CDN rows), plus the
//     tracer-interop instants detect_incidents() emits into the Tracer it
//     is given.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/coordinated_player.h"
#include "core/muxed_player.h"
#include "experiments/scenarios.h"
#include "fleet/cdn_fleet.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/scheduler.h"
#include "net/topology.h"
#include "obs/incidents.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "util/strings.h"

namespace demuxabr::obs {
namespace {

namespace ex = demuxabr::experiments;
using fleet::FleetConfig;
using fleet::fleet_fingerprint;

TelemetryConfig enabled_config(double bin_s = 1.0) {
  TelemetryConfig config;
  config.enabled = true;
  config.bin_s = bin_s;
  return config;
}

TimelineShard make_shard(double bin_s = 1.0) {
  return TimelineShard(enabled_config(bin_s), {500.0, 1000.0},
                       {"link-a", "link-b"});
}

// --- 1. Bin arithmetic ----------------------------------------------------

TEST(TimelineShard, BoundarySampleLandsInHigherBin) {
  TimelineShard shard = make_shard();
  TimelineCursor cursor;
  shard.sample_session(cursor, 1.999999, 2.0, 3.0, false);
  TimelineCursor cursor2;
  shard.sample_session(cursor2, 2.0, 2.0, 3.0, false);  // exactly on the edge
  const FleetTimeline timeline = shard.take();
  ASSERT_GE(timeline.bin_count(), 3u);
  EXPECT_EQ(timeline.bins[1].samples, 1u);
  EXPECT_EQ(timeline.bins[2].samples, 1u);
  EXPECT_EQ(timeline.bins[0].samples, 0u);
}

TEST(TimelineShard, SessionSampleAccumulatesFixedPointSums) {
  TimelineShard shard = make_shard();
  TimelineCursor cursor;
  shard.sample_session(cursor, 0.25, 1.5, 4.0, false);
  shard.sample_session(cursor, 0.50, 2.5, 1.0, true);
  const FleetTimeline timeline = shard.take();
  ASSERT_GE(timeline.bin_count(), 1u);
  const FleetBin& bin = timeline.bins[0];
  EXPECT_EQ(bin.samples, 2u);
  EXPECT_EQ(bin.audio_level_sum_us, 4'000'000);
  EXPECT_EQ(bin.video_level_sum_us, 5'000'000);
  EXPECT_EQ(bin.imbalance_sum_us, 2'500'000 + 1'500'000);
  EXPECT_EQ(bin.audio_level_min_us, 1'500'000);
  EXPECT_EQ(bin.video_level_min_us, 1'000'000);
  // Dedup: one session sampled twice in bin 0 counts once per state.
  EXPECT_EQ(bin.active_sessions, 1u);
  EXPECT_EQ(bin.stalled_sessions, 1u);
}

TEST(TimelineShard, LinkSegmentSplitsExactlyAtBinEdges) {
  TimelineShard shard = make_shard();
  // One flow from 0.5 s to 2.5 s at 1000 kbps offered/delivered.
  shard.link_segment(0, 0.5, 2.5, 1, 1000.0, 1000.0);
  // An idle segment accrues nothing but keeps the series length.
  shard.link_segment(1, 0.0, 3.0, 0, 800.0, 0.0);
  const FleetTimeline timeline = shard.take();
  ASSERT_EQ(timeline.links.size(), 2u);
  const LinkSeries& a = timeline.links[0];
  ASSERT_GE(a.bins.size(), 3u);
  EXPECT_EQ(a.bins[0].busy_us, 500'000);
  EXPECT_EQ(a.bins[1].busy_us, 1'000'000);
  EXPECT_EQ(a.bins[2].busy_us, 500'000);
  EXPECT_EQ(a.bins[0].flow_us, 500'000);
  // offered_kbit_mil = kbps · dt · 1000: 1000 kbps for 1 s = 1e6.
  EXPECT_EQ(a.bins[1].offered_kbit_mil, 1'000'000);
  EXPECT_EQ(a.bins[1].delivered_kbit_mil, 1'000'000);
  const LinkSeries& b = timeline.links[1];
  for (const LinkBin& bin : b.bins) {
    EXPECT_EQ(bin.busy_us, 0);
    EXPECT_EQ(bin.delivered_kbit_mil, 0);
  }
}

TEST(TimelineShard, BitrateMixBucketsByLadderRung) {
  TimelineShard shard = make_shard();
  shard.video_chunk(0.1, 500.0);
  shard.video_chunk(0.2, 500.0);
  shard.video_chunk(1.7, 1000.0);
  const FleetTimeline timeline = shard.take();
  ASSERT_EQ(timeline.rung_count(), 2u);
  ASSERT_GE(timeline.bin_count(), 2u);
  EXPECT_EQ(timeline.bitrate_mix[0 * 2 + 0], 2u);  // bin 0, rung 500
  EXPECT_EQ(timeline.bitrate_mix[0 * 2 + 1], 0u);
  EXPECT_EQ(timeline.bitrate_mix[1 * 2 + 1], 1u);  // bin 1, rung 1000
}

TEST(TimelineShard, LifecycleAndCdnCountsLandInTheirBins) {
  TimelineShard shard = make_shard();
  shard.session_started(0.0);
  shard.session_started(0.9);
  shard.session_departed(1.5);
  shard.cdn_request(1, 0.2, true);
  shard.cdn_request(1, 0.3, false);
  const FleetTimeline timeline = shard.take();
  EXPECT_EQ(timeline.bins[0].started_sessions, 2u);
  EXPECT_EQ(timeline.bins[1].departed_sessions, 1u);
  ASSERT_EQ(timeline.cdns.size(), 1u);
  EXPECT_EQ(timeline.cdns[0].link, 1u);
  EXPECT_EQ(timeline.cdns[0].bins[0].hits, 1u);
  EXPECT_EQ(timeline.cdns[0].bins[0].misses, 1u);
}

// --- 2. Merge algebra -----------------------------------------------------

TEST(FleetTimeline, ShardMergeWithLinkMapEqualsSingleShard) {
  // Whole world: links {0:"core", 1:"edge"}; shard A owns link 0, shard B
  // owns link 1 (as its local link 0).
  TimelineShard whole(enabled_config(), {500.0, 1000.0}, {"core", "edge"});
  TimelineCursor wc1;
  TimelineCursor wc2;
  whole.session_started(0.0);
  whole.sample_session(wc1, 0.5, 1.0, 2.0, false);
  whole.sample_session(wc2, 1.5, 3.0, 3.0, true);
  whole.video_chunk(0.5, 500.0);
  whole.link_segment(0, 0.0, 2.0, 1, 1000.0, 1000.0);
  whole.link_segment(1, 0.5, 1.5, 2, 800.0, 800.0);
  whole.cdn_request(1, 0.7, true);

  TimelineShard shard_a(enabled_config(), {500.0, 1000.0}, {"core"});
  TimelineCursor ac;
  shard_a.session_started(0.0);
  shard_a.sample_session(ac, 0.5, 1.0, 2.0, false);
  shard_a.video_chunk(0.5, 500.0);
  shard_a.link_segment(0, 0.0, 2.0, 1, 1000.0, 1000.0);

  TimelineShard shard_b(enabled_config(), {500.0, 1000.0}, {"edge"});
  TimelineCursor bc;
  shard_b.sample_session(bc, 1.5, 3.0, 3.0, true);
  shard_b.link_segment(0, 0.5, 1.5, 2, 800.0, 800.0);
  shard_b.cdn_request(0, 0.7, true);

  FleetTimeline merged;
  merged.bin_s = 1.0;
  merged.links.resize(2);
  merged.links[0].name = "core";
  merged.links[1].name = "edge";
  const std::vector<std::size_t> map_a{0};
  const std::vector<std::size_t> map_b{1};
  merged.merge(shard_a.take(), &map_a);
  merged.merge(shard_b.take(), &map_b);
  merged.normalize();

  EXPECT_EQ(merged.fingerprint(), whole.take().fingerprint());
}

FleetConfig telemetry_fleet_config(int clients) {
  FleetConfig config;
  config.client_count = clients;
  config.seed = 9;
  config.arrivals = fleet::ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.5;
  config.players.push_back(
      {"exoplayer", [] { return std::make_unique<ExoPlayerModel>(); }, 1.0});
  config.churn.leave_probability = 0.2;
  config.session.max_sim_time_s = 1800.0;
  config.telemetry.enabled = true;
  return config;
}

TEST(FleetTelemetry, CrossEngineTimelineIsByteIdentical) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(2500.0), "telemetry-engines");
  FleetConfig config = telemetry_fleet_config(8);
  config.engine = fleet::Engine::kBarrier;
  const fleet::FleetResult barrier =
      fleet::run_fleet(setup.content, setup.view, setup.trace, config);
  config.engine = fleet::Engine::kEventHeap;
  const fleet::FleetResult heap =
      fleet::run_fleet(setup.content, setup.view, setup.trace, config);
  ASSERT_TRUE(barrier.timeline.has_value());
  ASSERT_TRUE(heap.timeline.has_value());
  EXPECT_GT(barrier.timeline->bin_count(), 0u);
  EXPECT_EQ(barrier.timeline->fingerprint(), heap.timeline->fingerprint());
  // The timeline is part of the full fleet fingerprint too.
  EXPECT_EQ(fleet_fingerprint(barrier), fleet_fingerprint(heap));
  EXPECT_NE(fleet_fingerprint(barrier).find("telemetry bin_s_mil"),
            std::string::npos);
}

/// Three disjoint edge→core chains so the shard runner actually partitions.
TopologySpec telemetry_chains() {
  TopologySpec spec;
  for (int i = 0; i < 3; ++i) {
    const std::size_t edge = spec.add_link(
        format("edge-%d", i), BandwidthTrace::constant(2000.0 + 300.0 * i));
    const std::size_t core =
        spec.add_link(format("core-%d", i), BandwidthTrace::constant(1800.0));
    spec.add_path(format("chain-%d", i), {edge, core});
  }
  return spec;
}

TEST(FleetTelemetry, ShardMergeIsByteIdenticalAcrossThreadCounts) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(2500.0), "telemetry-shards");
  FleetConfig config = telemetry_fleet_config(12);
  config.topology = telemetry_chains();

  std::vector<std::string> fingerprints;
  for (const int threads : {1, 2, 8}) {
    config.threads = threads;
    const fleet::FleetResult result =
        fleet::run_fleet(setup.content, setup.view, setup.trace, config);
    ASSERT_TRUE(result.timeline.has_value());
    EXPECT_GT(result.timeline->bin_count(), 0u);
    // Global link naming survives the merge in declaration order.
    ASSERT_EQ(result.timeline->links.size(), 6u);
    EXPECT_EQ(result.timeline->links[0].name, "edge-0");
    EXPECT_EQ(result.timeline->links[5].name, "core-2");
    fingerprints.push_back(fleet_fingerprint(result));
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
}

TEST(FleetTelemetry, StreamingMetricsModeKeepsTimelineIdentical) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(2500.0), "telemetry-streaming");
  FleetConfig config = telemetry_fleet_config(10);
  const fleet::FleetResult full =
      fleet::run_fleet(setup.content, setup.view, setup.trace, config);
  config.streaming.client_threshold = 0;  // force streaming aggregation
  const fleet::FleetResult streaming =
      fleet::run_fleet(setup.content, setup.view, setup.trace, config);
  ASSERT_TRUE(full.timeline.has_value());
  ASSERT_TRUE(streaming.timeline.has_value());
  EXPECT_EQ(full.timeline->fingerprint(), streaming.timeline->fingerprint());
}

TEST(FleetTelemetry, RejectsBinWidthThatIsNotFiniteAndPositive) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(2500.0), "telemetry-bin-width");
  for (const double bin_s : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(testing::Message() << "bin_s " << bin_s);
    EXPECT_THROW(make_shard(bin_s), std::invalid_argument);
    FleetConfig config = telemetry_fleet_config(2);
    config.telemetry.bin_s = bin_s;
    EXPECT_THROW(fleet::run_fleet(setup.content, setup.view, setup.trace, config),
                 std::invalid_argument);
    // The shard runner: three disjoint chains on two threads.
    config.client_count = 6;
    config.topology = telemetry_chains();
    config.threads = 2;
    EXPECT_THROW(fleet::run_fleet(setup.content, setup.view, setup.trace, config),
                 std::invalid_argument);
  }
}

TEST(FleetTelemetry, DisabledRunCarriesNoTimeline) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(2500.0), "telemetry-off");
  FleetConfig config = telemetry_fleet_config(2);
  config.telemetry.enabled = false;
  const fleet::FleetResult result =
      fleet::run_fleet(setup.content, setup.view, setup.trace, config);
  EXPECT_FALSE(result.timeline.has_value());
  EXPECT_EQ(fleet_fingerprint(result).find("telemetry bin_s_mil"),
            std::string::npos);
}

// --- 3. Hysteresis --------------------------------------------------------

/// Synthetic timeline: `stalled_of` / `active` per bin drive the stall
/// series; imbalance and buffers stay calm.
FleetTimeline stall_timeline(const std::vector<std::uint64_t>& stalled_of,
                             std::uint64_t active = 10) {
  FleetTimeline timeline;
  timeline.bin_s = 1.0;
  timeline.bins.resize(stalled_of.size());
  for (std::size_t b = 0; b < stalled_of.size(); ++b) {
    timeline.bins[b].samples = active;
    timeline.bins[b].active_sessions = active;
    timeline.bins[b].stalled_sessions = stalled_of[b];
  }
  return timeline;
}

TEST(DetectIncidents, StallStormOpensAtEnterClosesBelowExit) {
  // enter = 0.3·10 = 3 stalled, exit = 0.15·10 = 1.5: bins 2..5 form one
  // episode (bin 5 holds 2 ≥ exit), closing at bin 6 (1 < 1.5).
  const FleetTimeline timeline = stall_timeline({0, 1, 4, 6, 5, 2, 1, 0});
  const std::vector<Incident> incidents = detect_incidents(timeline);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].type, IncidentType::kStallStorm);
  EXPECT_EQ(incidents[0].entity, "fleet");
  EXPECT_EQ(incidents[0].start_bin, 2);
  EXPECT_EQ(incidents[0].end_bin, 5);
  EXPECT_EQ(incidents[0].peak_bin, 3);
  EXPECT_DOUBLE_EQ(incidents[0].peak, 0.6);
  EXPECT_DOUBLE_EQ(incidents[0].start_s, 2.0);
  EXPECT_DOUBLE_EQ(incidents[0].end_s, 6.0);
}

TEST(DetectIncidents, OpenEpisodeFinalizesAtTimelineEnd) {
  const FleetTimeline timeline = stall_timeline({0, 5, 6, 7});
  const std::vector<Incident> incidents = detect_incidents(timeline);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].start_bin, 1);
  EXPECT_EQ(incidents[0].end_bin, 3);
  EXPECT_EQ(incidents[0].peak_bin, 3);
}

TEST(DetectIncidents, ImbalanceNeedsMinBinsSustained) {
  FleetTimeline timeline;
  timeline.bin_s = 1.0;
  timeline.bins.resize(8);
  // Mean imbalance per bin [s]: {0, 5, 5, 0, 5, 5, 5, 1}. Default
  // imbalance_min_bins = 3: the 2-bin spike never opens; bins 4..6 do
  // (closing below exit = 2 s at bin 7).
  const double imbalance_s[] = {0, 5, 5, 0, 5, 5, 5, 1};
  for (std::size_t b = 0; b < 8; ++b) {
    timeline.bins[b].samples = 4;
    timeline.bins[b].active_sessions = 4;
    timeline.bins[b].imbalance_sum_us =
        static_cast<std::int64_t>(imbalance_s[b] * 4 * 1e6);
  }
  const std::vector<Incident> incidents = detect_incidents(timeline);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].type, IncidentType::kAvImbalance);
  EXPECT_EQ(incidents[0].start_bin, 4);
  EXPECT_EQ(incidents[0].end_bin, 6);
}

TEST(DetectIncidents, LinkSaturationPerLinkWithEntityName) {
  FleetTimeline timeline;
  timeline.bin_s = 1.0;
  timeline.bins.resize(4);
  for (FleetBin& bin : timeline.bins) bin.samples = 1;
  timeline.links.resize(2);
  timeline.links[0].name = "calm";
  timeline.links[1].name = "hot";
  timeline.links[0].bins.resize(4);
  timeline.links[1].bins.resize(4);
  // Busy fractions: calm stays at 0.5; hot runs 1.0 for bins 1..2 then
  // drops to 0.5 (< exit 0.80).
  for (std::size_t b = 0; b < 4; ++b) {
    timeline.links[0].bins[b].busy_us = 500'000;
    timeline.links[1].bins[b].busy_us = (b == 1 || b == 2) ? 1'000'000 : 500'000;
  }
  const std::vector<Incident> incidents = detect_incidents(timeline);
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].type, IncidentType::kLinkSaturation);
  EXPECT_EQ(incidents[0].entity, "hot");
  EXPECT_EQ(incidents[0].link, 1u);
  EXPECT_EQ(incidents[0].start_bin, 1);
  EXPECT_EQ(incidents[0].end_bin, 2);
  EXPECT_DOUBLE_EQ(incidents[0].peak, 1.0);
}

// --- 4. Exporters + tracer interop ---------------------------------------

TEST(TelemetryExport, NdjsonAndCsvCarryTypedRows) {
  TimelineShard shard = make_shard();
  TimelineCursor cursor;
  shard.session_started(0.0);
  shard.sample_session(cursor, 0.5, 1.0, 2.0, true);
  shard.link_segment(0, 0.0, 1.0, 1, 1000.0, 1000.0);
  shard.cdn_request(1, 0.5, true);
  const FleetTimeline timeline = shard.take();
  const std::string ndjson = timeline.to_ndjson();
  EXPECT_NE(ndjson.find("\"type\":\"fleet\""), std::string::npos);
  EXPECT_NE(ndjson.find("\"type\":\"link\""), std::string::npos);
  EXPECT_NE(ndjson.find("\"type\":\"cdn\""), std::string::npos);
  EXPECT_NE(ndjson.find("\"name\":\"link-a\""), std::string::npos);
  const std::string csv = timeline.to_csv();
  EXPECT_EQ(csv.find("bin,t_s,samples,active,stalled,started,departed"), 0u);
  EXPECT_NE(csv.find("\n0,0.000,1,1,1,1,0"), std::string::npos);
}

// The exporters' bytes, pinned to digests recorded before the exporters
// moved from printf-style formatting to std::to_chars. Every row type
// appears: fleet rows with and without buffer minima and with a bitrate
// mix, link rows, and CDN rows.

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(TelemetryExport, HandBuiltTimelineBytesMatchRecordedDigests) {
  // The timeline of NdjsonAndCsvCarryTypedRows.
  TimelineShard shard = make_shard();
  TimelineCursor cursor;
  shard.session_started(0.0);
  shard.sample_session(cursor, 0.5, 1.0, 2.0, true);
  shard.link_segment(0, 0.0, 1.0, 1, 1000.0, 1000.0);
  shard.cdn_request(1, 0.5, true);
  const FleetTimeline timeline = shard.take();
  EXPECT_EQ(fnv1a(timeline.to_ndjson()), 0xb7e3c3905736adcbull);
  EXPECT_EQ(fnv1a(timeline.to_csv()), 0xb41eed8d296a61f3ull);

  // The same rows plus a bin with no session sample, whose minima export
  // as null (NDJSON) and empty cells (CSV).
  TimelineShard sparse = make_shard();
  TimelineCursor sparse_cursor;
  sparse.session_started(0.0);
  sparse.sample_session(sparse_cursor, 0.5, 1.0, 2.0, true);
  sparse.link_segment(0, 0.0, 1.0, 1, 1000.0, 1000.0);
  sparse.cdn_request(1, 0.5, true);
  sparse.session_departed(2.5);
  const FleetTimeline sparse_timeline = sparse.take();
  ASSERT_EQ(sparse_timeline.bin_count(), 3u);
  EXPECT_NE(sparse_timeline.to_ndjson().find("\"audio_min_s\":null"), std::string::npos);
  EXPECT_EQ(fnv1a(sparse_timeline.to_ndjson()), 0xf6e8bc8118628819ull);
  EXPECT_EQ(fnv1a(sparse_timeline.to_csv()), 0xa7c0d43b0b5e3d48ull);
}

/// The sharded spec perfbench's sharded-10x50 workload runs, at 5 clients
/// per edge: ample access, edge at the single-session operating point and
/// an undersized shared core.
TopologySpec sharded_10x5() {
  const double n = 5.0;
  TopologySpec spec = TopologySpec::sharded(
      10, BandwidthTrace::constant(2500.0 * n), BandwidthTrace::constant(900.0 * n),
      BandwidthTrace::constant(700.0 * n * 10.0));
  spec.video_assignment = TopologySpec::block_assignment(10, 5);
  return spec;
}

TEST(TelemetryExport, ShardedFleetBytesMatchRecordedDigests) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1000.0), "telemetry-export-sharded");
  FleetConfig config;
  config.client_count = 50;
  config.seed = 1;
  config.arrivals = fleet::ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 1.0;
  config.players.push_back(
      {"exoplayer", [] { return std::make_unique<ExoPlayerModel>(); }, 0.60});
  config.players.push_back(
      {"dashjs", [] { return std::make_unique<DashJsPlayerModel>(); }, 0.25});
  config.players.push_back(
      {"coordinated", [] { return std::make_unique<CoordinatedPlayer>(); }, 0.15});
  config.churn.leave_probability = 0.1;
  config.churn.min_watch_s = 30.0;
  config.churn.max_watch_s = 120.0;
  config.session.max_sim_time_s = 1800.0;
  config.telemetry.enabled = true;
  config.topology = sharded_10x5();
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  for (const fleet::Engine engine : {fleet::Engine::kBarrier, fleet::Engine::kEventHeap}) {
    SCOPED_TRACE(engine == fleet::Engine::kBarrier ? "barrier" : "event-heap");
    config.engine = engine;
    const fleet::FleetResult result =
        fleet::run_fleet(setup.content, setup.view, unused, config);
    ASSERT_TRUE(result.timeline.has_value());
    EXPECT_EQ(result.timeline->links.size(), 21u);
    EXPECT_EQ(fnv1a(result.timeline->to_ndjson()), 0x1028e01d2687d47bull);
    EXPECT_EQ(fnv1a(result.timeline->to_csv()), 0x2837f85480472b97ull);
  }
}

TEST(TelemetryExport, CachedChainFleetBytesMatchRecordedDigests) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1000.0), "telemetry-export-cdn");
  const std::int64_t catalog_bytes =
      fleet::make_fleet_catalog(setup.content, StorageMode::kDemuxed)->total_bytes();
  FleetConfig config = telemetry_fleet_config(12);
  config.players.push_back({"muxed", [] { return std::make_unique<MuxedPlayer>(); }, 1.0});
  config.topology = telemetry_chains();
  for (std::size_t i = 0; i < 3; ++i) {
    config.topology->links[2 * i].cache = CacheSpec{catalog_bytes / 4, -1};
  }
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  for (const int mode : {0, 1, 2}) {
    SCOPED_TRACE(mode == 0 ? "barrier" : mode == 1 ? "event-heap" : "threads=2");
    config.engine = mode == 0 ? fleet::Engine::kBarrier : fleet::Engine::kEventHeap;
    config.threads = mode == 2 ? 2 : 1;
    const fleet::FleetResult result =
        fleet::run_fleet(setup.content, setup.view, unused, config);
    ASSERT_TRUE(result.timeline.has_value());
    const std::string ndjson = result.timeline->to_ndjson();
    EXPECT_NE(ndjson.find("\"type\":\"cdn\""), std::string::npos);
    EXPECT_EQ(fnv1a(ndjson), 0xf0820a71d4cd87a8ull);
    EXPECT_EQ(fnv1a(result.timeline->to_csv()), 0xa9846d172509ba96ull);
  }
}

TEST(TelemetryReport, HtmlIsSelfContainedWithChartsAndIncidents) {
  const FleetTimeline timeline = stall_timeline({0, 4, 5, 4, 0, 0});
  const std::vector<Incident> incidents = detect_incidents(timeline);
  ASSERT_FALSE(incidents.empty());
  const std::string html =
      telemetry_report(timeline, incidents, "unit & test");
  EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(html.find("unit &amp; test"), std::string::npos);  // escaped title
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("stall_storm"), std::string::npos);
  EXPECT_NE(html.find("<table>"), std::string::npos);
  // Self-contained: no external fetches of any kind.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);
}

TEST(TelemetryReport, EmptyIncidentListSaysSo) {
  const FleetTimeline timeline = stall_timeline({0, 0, 0});
  const std::string html = telemetry_report(timeline, {});
  EXPECT_NE(html.find("No incidents detected."), std::string::npos);
}

TEST(DetectIncidents, EmitsTracerInstantsPerIncident) {
  const FleetTimeline timeline = stall_timeline({0, 4, 5, 0});
  Tracer tracer(kCatEngine);
  const std::vector<Incident> incidents = detect_incidents(timeline, &tracer);
  ASSERT_EQ(incidents.size(), 1u);
  CaptureSink sink;
  tracer.drain_to(sink);
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(std::string(sink.events[0].name), "incident_begin");
  EXPECT_EQ(std::string(sink.events[1].name), "incident_end");
  EXPECT_EQ(sink.events[0].kind, TraceEvent::Kind::kInstant);
  EXPECT_EQ(sink.events[0].track, kEngineTrack);
  EXPECT_DOUBLE_EQ(sink.events[0].t_s, incidents[0].start_s);
  EXPECT_DOUBLE_EQ(sink.events[1].t_s, incidents[0].end_s);
  EXPECT_NE(sink.events[0].args.find("\"type\":\"stall_storm\""),
            std::string::npos);
  EXPECT_NE(sink.events[0].args.find("\"entity\":\"fleet\""),
            std::string::npos);
}

}  // namespace
}  // namespace demuxabr::obs
