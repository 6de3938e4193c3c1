// Parallel shard execution (fleet/shard.h) + streaming metrics mode, in
// three tiers:
//
//  1. Partition unit tests: union-find components come back ordered by
//     smallest link index, sub-specs validate, dark links fold into shard
//     0, client ids renumber monotonically and audio paths stay coupled
//     with their video paths.
//  2. Determinism: fleet fingerprints are byte-identical between threads=1
//     (the serial whole-topology path) and sharded runs at threads {2, 8,
//     0=hardware}, in both full-log and streaming-metrics mode. These runs
//     execute shard engines concurrently on the ThreadPool, so the fleet
//     binary doubles as the TSan coverage of the shard runner (CI runs
//     ctest -LE fleet_large under -fsanitize=thread).
//  3. Streaming-vs-full equivalence: identical seeds, one run retaining
//     every log and one aggregating O(1)-per-client — exact fields (counts,
//     digest, fairness, means) agree to float noise, percentiles agree
//     within the sketch's relative-error bound against the exact order
//     statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "experiments/scenarios.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/scheduler.h"
#include "fleet/shard.h"
#include "fleet/topology.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "util/strings.h"

namespace demuxabr::fleet {
namespace {

namespace ex = demuxabr::experiments;

std::unique_ptr<PlayerAdapter> make_exo() {
  return std::make_unique<ExoPlayerModel>();
}

std::unique_ptr<PlayerAdapter> make_dashjs() {
  return std::make_unique<DashJsPlayerModel>();
}

FleetConfig base_config(int clients, std::uint64_t seed = 7) {
  FleetConfig config;
  config.client_count = clients;
  config.seed = seed;
  config.players.push_back({"exoplayer", &make_exo, 1.0});
  config.session.max_sim_time_s = 1800.0;
  return config;
}

/// K causally independent edge→core chains (no shared links), one path per
/// chain; clients round-robin across them (default modulo assignment).
TopologySpec disjoint_chains(int k, double edge_kbps, double core_kbps) {
  TopologySpec spec;
  for (int i = 0; i < k; ++i) {
    const std::size_t edge =
        spec.add_link(format("edge-%d", i),
                      BandwidthTrace::constant(edge_kbps + 300.0 * i));
    const std::size_t core =
        spec.add_link(format("core-%d", i), BandwidthTrace::constant(core_kbps));
    spec.add_path(format("chain-%d", i), {edge, core});
  }
  return spec;
}

// --- 1. Partition unit tests. ---

TEST(PartitionFleet, ComponentsOrderedDarkLinkFoldsAndIdsRenumber) {
  TopologySpec spec = disjoint_chains(3, 2000.0, 4000.0);
  spec.add_link("dark", BandwidthTrace::constant(0.0));  // no path rides it
  FleetConfig config = base_config(10);
  config.topology = spec;
  const std::vector<ClientPlan> plans = plan_population(config);
  const ShardPartition partition = partition_fleet(spec, plans);

  ASSERT_EQ(partition.shards.size(), 3u);
  // Shards ordered by smallest global link index; the dark link (index 6)
  // is causally inert and rides along in shard 0.
  EXPECT_EQ(partition.shards[0].link_ids, (std::vector<std::size_t>{0, 1, 6}));
  EXPECT_EQ(partition.shards[1].link_ids, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(partition.shards[2].link_ids, (std::vector<std::size_t>{4, 5}));
  EXPECT_EQ(partition.shards[0].path_ids, (std::vector<std::size_t>{0}));
  EXPECT_EQ(partition.shards[1].path_ids, (std::vector<std::size_t>{1}));
  EXPECT_EQ(partition.shards[2].path_ids, (std::vector<std::size_t>{2}));

  // 10 clients round-robin over 3 chains: ids {0,3,6,9} / {1,4,7} / {2,5,8}.
  EXPECT_EQ(partition.shards[0].client_ids, (std::vector<int>{0, 3, 6, 9}));
  EXPECT_EQ(partition.shards[1].client_ids, (std::vector<int>{1, 4, 7}));
  EXPECT_EQ(partition.shards[2].client_ids, (std::vector<int>{2, 5, 8}));

  std::size_t total_clients = 0;
  for (const FleetShard& shard : partition.shards) {
    EXPECT_EQ(shard.spec.validate(), "");
    total_clients += shard.plans.size();
    // Local ids are the rank of the global id: dense, monotone in plan
    // order (simultaneous arrivals keep id order).
    for (std::size_t c = 0; c < shard.plans.size(); ++c) {
      EXPECT_EQ(shard.plans[c].id, static_cast<int>(c));
    }
    // Explicit per-local-client assignment, one entry per client.
    EXPECT_EQ(shard.spec.video_assignment.size(), shard.plans.size());
  }
  EXPECT_EQ(total_clients, plans.size());
}

TEST(PartitionFleet, SplitAudioCouplesBothPathsIntoOneShard) {
  // Two components, each carrying a video chain and a separate audio pipe
  // into the same per-component core: a client's audio path must land in
  // the same shard as its video path.
  TopologySpec spec;
  std::vector<std::size_t> video_paths;
  std::vector<std::size_t> audio_paths;
  for (int i = 0; i < 2; ++i) {
    const std::size_t core =
        spec.add_link(format("core-%d", i), BandwidthTrace::constant(4000.0));
    const std::size_t vedge =
        spec.add_link(format("vedge-%d", i), BandwidthTrace::constant(2200.0));
    const std::size_t apipe =
        spec.add_link(format("apipe-%d", i), BandwidthTrace::constant(320.0));
    video_paths.push_back(spec.add_path(format("video-%d", i), {vedge, core}));
    audio_paths.push_back(spec.add_path(format("audio-%d", i), {apipe, core}));
  }
  spec.video_assignment = video_paths;
  spec.audio_assignment = audio_paths;

  FleetConfig config = base_config(8);
  config.topology = spec;
  const std::vector<ClientPlan> plans = plan_population(config);
  const ShardPartition partition = partition_fleet(spec, plans);

  ASSERT_EQ(partition.shards.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    const FleetShard& shard = partition.shards[s];
    EXPECT_EQ(shard.spec.validate(), "");
    EXPECT_EQ(shard.spec.paths.size(), 2u);
    EXPECT_EQ(shard.plans.size(), 4u);
    EXPECT_EQ(shard.spec.audio_assignment.size(), shard.plans.size());
    // Both of each client's paths resolve inside the shard.
    for (std::size_t c = 0; c < shard.plans.size(); ++c) {
      EXPECT_LT(shard.spec.video_assignment[c], shard.spec.paths.size());
      EXPECT_LT(shard.spec.audio_assignment[c], shard.spec.paths.size());
      EXPECT_NE(shard.spec.video_assignment[c], shard.spec.audio_assignment[c]);
    }
  }
}

TEST(PartitionFleet, SingleComponentYieldsOneShard) {
  // A shared core joins every chain into one component — nothing to split.
  TopologySpec spec;
  const std::size_t core = spec.add_link("core", BandwidthTrace::constant(5000.0));
  for (int i = 0; i < 3; ++i) {
    const std::size_t edge =
        spec.add_link(format("edge-%d", i), BandwidthTrace::constant(2000.0));
    spec.add_path(format("path-%d", i), {edge, core});
  }
  FleetConfig config = base_config(6);
  config.topology = spec;
  const ShardPartition partition =
      partition_fleet(spec, plan_population(config));
  ASSERT_EQ(partition.shards.size(), 1u);
  EXPECT_EQ(partition.shards[0].plans.size(), 6u);
}

// --- 2. Determinism: byte-identical fingerprints across thread counts. ---

TEST(ShardedFleet, FullLogFingerprintByteIdenticalAcrossThreadCounts) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "shard-threads");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  FleetConfig config = base_config(12, 19);
  config.players.push_back({"dashjs", &make_dashjs, 0.5});
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.4;
  config.churn.leave_probability = 0.3;
  config.churn.min_watch_s = 20.0;
  config.churn.max_watch_s = 90.0;
  config.topology = disjoint_chains(4, 1800.0, 3600.0);

  config.threads = 1;  // the serial whole-topology reference path
  const FleetResult serial =
      run_fleet(setup.content, setup.view, unused, config);
  const std::string expected = fleet_fingerprint(serial);
  ASSERT_EQ(serial.clients.size(), 12u);

  for (const int threads : {2, 8, 0}) {
    config.threads = threads;
    const FleetResult sharded =
        run_fleet(setup.content, setup.view, unused, config);
    EXPECT_EQ(fleet_fingerprint(sharded), expected) << "threads=" << threads;
    EXPECT_EQ(sharded.client_digest, serial.client_digest)
        << "threads=" << threads;
    EXPECT_EQ(sharded.steps, serial.steps) << "threads=" << threads;
  }
}

TEST(ShardedFleet, StreamingFingerprintByteIdenticalAcrossThreadCounts) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "shard-streaming");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  FleetConfig config = base_config(12, 29);
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 3.0;
  config.topology = disjoint_chains(3, 2000.0, 4200.0);
  config.streaming.client_threshold = 1;  // streaming mode always on

  config.threads = 1;
  const FleetResult serial =
      run_fleet(setup.content, setup.view, unused, config);
  ASSERT_TRUE(serial.streaming.has_value());
  EXPECT_TRUE(serial.clients.empty());
  const std::string expected = fleet_fingerprint(serial);

  for (const int threads : {2, 8}) {
    config.threads = threads;
    const FleetResult sharded =
        run_fleet(setup.content, setup.view, unused, config);
    ASSERT_TRUE(sharded.streaming.has_value()) << "threads=" << threads;
    EXPECT_EQ(fleet_fingerprint(sharded), expected) << "threads=" << threads;
    EXPECT_EQ(sharded.streaming->clients, serial.streaming->clients);
    // Sketch bucket counts are integers: every percentile matches exactly,
    // not just within tolerance.
    for (const double q : {0.25, 0.5, 0.9, 0.99}) {
      EXPECT_DOUBLE_EQ(sharded.streaming->video_kbps.quantile(q),
                       serial.streaming->video_kbps.quantile(q))
          << "threads=" << threads << " q=" << q;
    }
  }
}

TEST(ShardedFleet, SplitAudioShardedMatchesSerial) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "shard-split");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  TopologySpec spec;
  std::vector<std::size_t> video_paths;
  std::vector<std::size_t> audio_paths;
  for (int i = 0; i < 2; ++i) {
    const std::size_t core =
        spec.add_link(format("core-%d", i), BandwidthTrace::constant(4000.0));
    const std::size_t vedge =
        spec.add_link(format("vedge-%d", i), BandwidthTrace::constant(2200.0));
    const std::size_t apipe =
        spec.add_link(format("apipe-%d", i), BandwidthTrace::constant(320.0));
    video_paths.push_back(spec.add_path(format("video-%d", i), {vedge, core}));
    audio_paths.push_back(spec.add_path(format("audio-%d", i), {apipe, core}));
  }
  spec.video_assignment = video_paths;
  spec.audio_assignment = audio_paths;

  FleetConfig config = base_config(6, 3);
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 5.0;
  config.topology = std::move(spec);

  config.threads = 1;
  const FleetResult serial =
      run_fleet(setup.content, setup.view, unused, config);
  EXPECT_TRUE(serial.split_audio);
  config.threads = 4;
  const FleetResult sharded =
      run_fleet(setup.content, setup.view, unused, config);
  EXPECT_TRUE(sharded.split_audio);
  EXPECT_EQ(fleet_fingerprint(sharded), fleet_fingerprint(serial));
  // Path attribution survives the local→global renumbering.
  for (const ClientResult& client : sharded.clients) {
    EXPECT_NE(client.video_path, client.audio_path);
  }
}

TEST(ShardedFleet, ThreadsWithoutTopologyStaysSerialPath) {
  // threads != 1 with no topology has nothing to shard: same result object
  // through the plain serial path.
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "shard-notopo");
  const BandwidthTrace trace = BandwidthTrace::constant(2500.0);
  FleetConfig config = base_config(4, 21);
  config.threads = 1;
  const FleetResult serial = run_fleet(setup.content, setup.view, trace, config);
  config.threads = 8;
  const FleetResult threaded = run_fleet(setup.content, setup.view, trace, config);
  EXPECT_EQ(fleet_fingerprint(threaded), fleet_fingerprint(serial));
}

// --- 3. Streaming-vs-full equivalence on identical seeds. ---

TEST(StreamingMetrics, MatchesFullLogModeWithinSketchTolerance) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "streaming-vs-full");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  FleetConfig config = base_config(24, 31);
  config.players.push_back({"dashjs", &make_dashjs, 0.5});
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 2.0;
  config.churn.leave_probability = 0.25;
  config.churn.min_watch_s = 30.0;
  config.churn.max_watch_s = 120.0;
  config.topology = disjoint_chains(3, 1900.0, 3800.0);
  config.threads = 1;

  const FleetResult full = run_fleet(setup.content, setup.view, unused, config);
  FleetConfig streaming_config = config;
  streaming_config.streaming.client_threshold = 1;
  const FleetResult streamed =
      run_fleet(setup.content, setup.view, unused, streaming_config);

  ASSERT_TRUE(streamed.streaming.has_value());
  EXPECT_TRUE(streamed.clients.empty());
  ASSERT_EQ(full.clients.size(), 24u);
  // The order-invariant digest hashes only mode-independent fields: it must
  // agree bit for bit between a run that kept every log and one that kept
  // none — the strongest cheap witness that minimal-log sessions behaved
  // identically.
  EXPECT_EQ(streamed.client_digest, full.client_digest);
  EXPECT_DOUBLE_EQ(streamed.end_time_s, full.end_time_s);

  const FleetMetrics fm = compute_fleet_metrics(full);
  const FleetMetrics sm = compute_fleet_metrics(streamed);
  EXPECT_EQ(sm.clients, fm.clients);
  EXPECT_EQ(sm.completed, fm.completed);
  EXPECT_EQ(sm.departed_early, fm.departed_early);
  // Exact accumulations — only float summation order differs (retirement
  // order vs client-id order).
  const auto near_rel = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max({std::abs(a), std::abs(b), 1.0});
  };
  EXPECT_TRUE(near_rel(sm.mean_qoe, fm.mean_qoe)) << sm.mean_qoe << " vs " << fm.mean_qoe;
  EXPECT_TRUE(near_rel(sm.jain_fairness_video, fm.jain_fairness_video));
  EXPECT_TRUE(near_rel(sm.jain_fairness_throughput, fm.jain_fairness_throughput));
  EXPECT_TRUE(near_rel(sm.video_kbps.mean, fm.video_kbps.mean));
  EXPECT_DOUBLE_EQ(sm.video_kbps.min, fm.video_kbps.min);
  EXPECT_DOUBLE_EQ(sm.video_kbps.max, fm.video_kbps.max);
  // The §3.4 imbalance reads SessionTotals in both modes, never a series.
  EXPECT_GT(fm.buffer_imbalance_s.max, 0.0);
  EXPECT_DOUBLE_EQ(sm.buffer_imbalance_s.min, fm.buffer_imbalance_s.min);
  EXPECT_DOUBLE_EQ(sm.buffer_imbalance_s.max, fm.buffer_imbalance_s.max);
  EXPECT_TRUE(near_rel(sm.buffer_imbalance_s.mean, fm.buffer_imbalance_s.mean))
      << sm.buffer_imbalance_s.mean << " vs " << fm.buffer_imbalance_s.mean;

  // Percentiles: sketch-approximate, within alpha of the exact order
  // statistic at rank q * (n - 1) derived from the retained full logs.
  std::vector<double> exact_kbps;
  for (const ClientResult& client : full.clients) {
    exact_kbps.push_back(client.qoe.avg_video_kbps);
  }
  std::sort(exact_kbps.begin(), exact_kbps.end());
  const double alpha = streamed.streaming->video_kbps.relative_error();
  for (const double q : {0.25, 0.5, 0.75, 0.9}) {
    const double rank = q * static_cast<double>(exact_kbps.size() - 1);
    const double exact = exact_kbps[static_cast<std::size_t>(rank)];
    EXPECT_NEAR(streamed.streaming->video_kbps.quantile(q), exact,
                alpha * exact + 1e-9)
        << "q=" << q;
  }

  // Per-path groups agree on membership and means.
  ASSERT_EQ(sm.path_groups.size(), fm.path_groups.size());
  for (std::size_t p = 0; p < fm.path_groups.size(); ++p) {
    EXPECT_EQ(sm.path_groups[p].clients, fm.path_groups[p].clients);
    EXPECT_EQ(sm.path_groups[p].name, fm.path_groups[p].name);
    EXPECT_TRUE(near_rel(sm.path_groups[p].mean_video_kbps,
                         fm.path_groups[p].mean_video_kbps));
    EXPECT_TRUE(near_rel(sm.path_groups[p].jain_fairness_video,
                         fm.path_groups[p].jain_fairness_video));
  }
}

TEST(StreamingMetrics, ThresholdGatesTheMode) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "streaming-threshold");
  const BandwidthTrace trace = BandwidthTrace::constant(2500.0);
  FleetConfig config = base_config(4, 5);
  config.streaming.client_threshold = 5;  // fleet of 4 stays below
  const FleetResult below = run_fleet(setup.content, setup.view, trace, config);
  EXPECT_FALSE(below.streaming.has_value());
  EXPECT_EQ(below.clients.size(), 4u);

  config.streaming.client_threshold = 4;  // exactly at the threshold: on
  const FleetResult at = run_fleet(setup.content, setup.view, trace, config);
  ASSERT_TRUE(at.streaming.has_value());
  EXPECT_TRUE(at.clients.empty());
  EXPECT_EQ(at.streaming->clients, 4u);
  EXPECT_EQ(at.client_digest, below.client_digest);
}

}  // namespace
}  // namespace demuxabr::fleet
