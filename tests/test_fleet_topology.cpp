// Multi-link topology battery (net/topology.h), in three tiers:
//
//  1. Differential: kBarrier and kEventHeap produce byte-identical fleet
//     fingerprints on >=3-link client→edge→core topologies, heterogeneous
//     edges, a shared-core-only variant and a split audio path. (Single-
//     and two-link fleets are pinned to recorded digests in
//     test_fleet_golden.cpp.)
//  2. Property: a seeded random-topology generator (depth <= 3, fan-in
//     <= 8, 200+ cases) drives random flow schedules straight against the
//     Topology oracle and checks conservation (flow bytes partition each
//     link's delivered integral), residual_flows == 0, the min-share
//     bound (a path's rate/integral never exceeds any hop's fair share),
//     and bit-exact agreement of a 1-hop path with the plain single-link
//     oracle of link_oracle.h.
//  3. Regression: finalize on never-used links (idle tail, 0/0 utilization
//     guard), completion re-keying when the binding constraint moves
//     mid-flow (epoch-lazy sync counters must reconcile), double removes
//     counted and clamped, and malformed specs failing closed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/scenarios.h"
#include "experiments/sweep.h"
#include "fleet/event_heap.h"
#include "fleet/metrics.h"
#include "fleet/scheduler.h"
#include "link_oracle.h"
#include "net/topology.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "util/rng.h"
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

/// Runs `config` under both engines and asserts byte-identical per-client
/// logs and fleet fingerprints. Returns the event-heap result for further
/// assertions.
FleetResult expect_engines_identical(const ex::ExperimentSetup& setup,
                                     FleetConfig config) {
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  config.engine = Engine::kBarrier;
  const FleetResult barrier = run_fleet(setup.content, setup.view, unused, config);
  config.engine = Engine::kEventHeap;
  FleetResult heap = run_fleet(setup.content, setup.view, unused, config);

  EXPECT_EQ(barrier.clients.size(), heap.clients.size());
  for (std::size_t i = 0;
       i < std::min(barrier.clients.size(), heap.clients.size()); ++i) {
    EXPECT_EQ(ex::log_fingerprint(barrier.clients[i].log),
              ex::log_fingerprint(heap.clients[i].log))
        << "client " << barrier.clients[i].id;
  }
  EXPECT_EQ(fleet_fingerprint(barrier), fleet_fingerprint(heap));
  return heap;
}

// --- 1. Differential: cross-engine identity on multi-link topologies. ---

TEST(TopologyCrossEngine, ThreeLinkShardsAcrossFleetSizes) {
  const ex::ExperimentSetup setup = ex::plain_dash(ex::varying_600_trace(), "shards");
  for (const int clients : {1, 2, 10}) {
    FleetConfig config = base_config(clients, 11);
    config.arrivals = ArrivalProcess::kDeterministic;
    config.arrival_interval_s = 4.0;
    // Two client→edge→core shards; the core tightens as the fleet grows so
    // the binding constraint actually lives there under contention.
    config.topology = TopologySpec::sharded(
        2, BandwidthTrace::constant(4000.0), BandwidthTrace::constant(1800.0),
        BandwidthTrace::constant(400.0 * clients + 1200.0));
    const FleetResult result = expect_engines_identical(setup, config);
    EXPECT_EQ(result.links.size(), 5u);
    for (const LinkStats& link : result.links) {
      EXPECT_EQ(link.residual_flows, 0) << link.name;
    }
    for (const PathSummary& path : result.paths) {
      EXPECT_EQ(path.residual_flows, 0) << path.name;
    }
  }
}

TEST(TopologyCrossEngine, HeterogeneousEdgeCapacitiesWithChurn) {
  const ex::ExperimentSetup setup = ex::plain_dash(ex::varying_600_trace(), "hetero");
  FleetConfig config = base_config(10, 23);
  config.players.push_back({"dashjs", &make_dashjs, 0.5});
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.3;
  config.churn.leave_probability = 0.4;
  config.churn.min_watch_s = 15.0;
  config.churn.max_watch_s = 80.0;

  // Three shards with very different edge pipes — one generous, one
  // mid-tier on a square wave (binding flips with the wave), one starved.
  TopologySpec spec;
  const std::size_t core = spec.add_link("core", BandwidthTrace::constant(5200.0));
  const std::size_t fast = spec.add_link("edge-fast", BandwidthTrace::constant(4000.0));
  const std::size_t wavy = spec.add_link(
      "edge-wavy", BandwidthTrace::square_wave(700.0, 2600.0, 12.0, 9.0));
  const std::size_t slow = spec.add_link("edge-slow", BandwidthTrace::constant(750.0));
  spec.add_path("fast", {fast, core});
  spec.add_path("wavy", {wavy, core});
  spec.add_path("slow", {slow, core});
  config.topology = std::move(spec);

  const FleetResult result = expect_engines_identical(setup, config);
  EXPECT_EQ(result.links.size(), 4u);
  // Every client must be attributed to a path in the result.
  for (const ClientResult& client : result.clients) {
    EXPECT_GE(client.video_path, 0);
    EXPECT_EQ(client.audio_path, client.video_path);
  }
  const FleetMetrics metrics = compute_fleet_metrics(result);
  ASSERT_EQ(metrics.path_groups.size(), 3u);
  int grouped = 0;
  for (const auto& group : metrics.path_groups) grouped += group.clients;
  EXPECT_EQ(grouped, static_cast<int>(result.clients.size()));
}

TEST(TopologyCrossEngine, SharedCoreOnlyVariant) {
  // Every path is the bare shared core — several 1-hop paths over one link
  // (a single-bottleneck fleet with per-path accounting).
  const ex::ExperimentSetup setup = ex::plain_dash(ex::varying_600_trace(), "core-only");
  FleetConfig config = base_config(6, 5);
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 6.0;

  TopologySpec spec;
  const std::size_t core = spec.add_link("core", BandwidthTrace::constant(4800.0));
  spec.add_path("tenant-a", {core});
  spec.add_path("tenant-b", {core});
  config.topology = std::move(spec);

  const FleetResult result = expect_engines_identical(setup, config);
  ASSERT_EQ(result.links.size(), 1u);
  // All traversing paths are 1-hop, so the core saturates while busy:
  // delivered == offered over every busy interval.
  EXPECT_GT(result.links[0].busy_s, 0.0);
  EXPECT_EQ(result.links[0].residual_flows, 0);
}

TEST(TopologyCrossEngine, SplitAudioPath) {
  // Audio rides its own access+core chain while video crosses the shared
  // edge — the §4.1 different-servers scenario over a real topology.
  const ex::ExperimentSetup setup = ex::plain_dash(ex::varying_600_trace(), "split");
  FleetConfig config = base_config(4, 3);
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 7.0;

  TopologySpec spec;
  const std::size_t core = spec.add_link("core", BandwidthTrace::constant(4000.0));
  const std::size_t edge = spec.add_link("edge", BandwidthTrace::constant(2200.0));
  const std::size_t audio_pipe =
      spec.add_link("audio-pipe", BandwidthTrace::constant(320.0));
  const std::size_t video_path = spec.add_path("video", {edge, core});
  const std::size_t audio_path = spec.add_path("audio", {audio_pipe, core});
  spec.video_assignment = {video_path};
  spec.audio_assignment = {audio_path};
  config.topology = std::move(spec);

  const FleetResult result = expect_engines_identical(setup, config);
  EXPECT_TRUE(result.split_audio);
  for (const ClientResult& client : result.clients) {
    EXPECT_NE(client.video_path, client.audio_path);
  }
  // The audio pipe saw traffic on every client.
  ASSERT_EQ(result.links.size(), 3u);
  EXPECT_GT(result.links[2].busy_s, 0.0);
}

// --- 2. Property suite over a seeded random-topology generator. ---

BandwidthTrace random_trace(Rng& rng) {
  const double base = rng.uniform(600.0, 5000.0);
  if (rng.bernoulli(0.35)) {
    return BandwidthTrace::square_wave(base * rng.uniform(0.2, 0.7), base,
                                       rng.uniform(2.0, 15.0),
                                       rng.uniform(2.0, 15.0));
  }
  return BandwidthTrace::constant(base);
}

/// Random tiered topology: depth <= 3 (access → edge → core), fan-in <= 8
/// shards into one core.
TopologySpec random_spec(Rng& rng) {
  TopologySpec spec;
  const auto depth = static_cast<int>(rng.uniform_int(1, 3));
  const auto fan_in = static_cast<int>(rng.uniform_int(1, 8));
  const std::size_t core = spec.add_link("core", random_trace(rng));
  for (int e = 0; e < fan_in; ++e) {
    std::vector<std::size_t> hops;
    if (depth >= 3) hops.push_back(spec.add_link(format("access-%d", e), random_trace(rng)));
    if (depth >= 2) hops.push_back(spec.add_link(format("edge-%d", e), random_trace(rng)));
    hops.push_back(core);
    spec.add_path(format("path-%d", e), std::move(hops));
  }
  return spec;
}

struct OracleFlow {
  std::size_t path = 0;
  double v_start_kbit = 0.0;
};

/// Drives one random flow schedule against a Topology and checks the
/// invariants. Returns the number of flow-add events (for sanity).
int run_oracle_case(std::uint64_t seed) {
  Rng rng(seed);
  TopologySpec spec = random_spec(rng);
  EXPECT_EQ(spec.validate(), "");
  const std::size_t path_count = spec.paths.size();
  Topology topo(std::move(spec));

  std::vector<Channel*> channels;
  for (std::size_t p = 0; p < topo.path_count(); ++p) {
    channels.push_back(&topo.path_channel(p));
  }
  // Per-link sum of flow service deltas (conservation ledger).
  std::vector<double> ledger_kbit(topo.link_count(), 0.0);
  std::vector<std::vector<std::size_t>> path_hops(topo.path_count());
  // Recover hop sets from the summaries (names are unique by construction).
  {
    const std::vector<PathSummary> summaries = topo.path_stats();
    for (std::size_t p = 0; p < summaries.size(); ++p) {
      for (const std::string& hop_name : summaries[p].hop_names) {
        for (std::size_t l = 0; l < topo.link_count(); ++l) {
          if (topo.link_name(l) == hop_name) path_hops[p].push_back(l);
        }
      }
    }
  }

  std::vector<OracleFlow> flows;
  double now = 0.0;
  int adds = 0;
  const int events = 30 + static_cast<int>(rng.uniform_int(0, 40));
  for (int e = 0; e < events; ++e) {
    now += rng.exponential(0.5);  // mean 2 s between population changes
    const bool add = flows.empty() || rng.bernoulli(0.55);
    if (add) {
      const auto p = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(path_count) - 1));
      OracleFlow flow;
      flow.path = p;
      flow.v_start_kbit = channels[p]->add_flow(now);
      flows.push_back(flow);
      ++adds;
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(flows.size()) - 1));
      const OracleFlow flow = flows[i];
      channels[flow.path]->remove_flow(now);
      const double delta = topo.path_service_kbit(flow.path) - flow.v_start_kbit;
      EXPECT_GE(delta, 0.0);
      for (const std::size_t l : path_hops[flow.path]) ledger_kbit[l] += delta;
      flows[i] = flows.back();
      flows.pop_back();
    }
    // Min-share invariant at the event time: no path rate above any of its
    // hops' fair shares.
    for (std::size_t p = 0; p < topo.path_count(); ++p) {
      const double rate = topo.path_rate_at(p, now);
      for (const std::size_t l : path_hops[p]) {
        EXPECT_LE(rate, topo.link_fair_share_at(l, now) * (1.0 + 1e-12));
      }
    }
  }
  // Drain every remaining flow, then close the books with an idle tail.
  now += rng.exponential(0.5);
  for (const OracleFlow& flow : flows) {
    channels[flow.path]->remove_flow(now);
  }
  // Deltas must be read against the post-drain integrals (all removals
  // happened at `now`, so every path's V is already advanced there).
  for (const OracleFlow& flow : flows) {
    const double delta = topo.path_service_kbit(flow.path) - flow.v_start_kbit;
    EXPECT_GE(delta, 0.0);
    for (const std::size_t l : path_hops[flow.path]) ledger_kbit[l] += delta;
  }
  topo.finalize(now + 5.0);

  const std::vector<LinkStats> links = topo.link_stats();
  for (std::size_t l = 0; l < links.size(); ++l) {
    // residual_flows == 0 on every link after a clean drain.
    EXPECT_EQ(links[l].residual_flows, 0) << links[l].name;
    // Conservation: the link's delivered integral is partitioned exactly by
    // the flow service deltas of the paths through it.
    const double tolerance = 1e-6 * std::max(1.0, links[l].delivered_kbit);
    EXPECT_NEAR(ledger_kbit[l], links[l].delivered_kbit, tolerance) << links[l].name;
    // A busy link never delivers more than it offers.
    EXPECT_LE(links[l].delivered_kbit, links[l].offered_kbit * (1.0 + 1e-12));
  }
  // Integral form of the min-share bound: V_P(end) <= V_l(end) per hop.
  for (std::size_t p = 0; p < topo.path_count(); ++p) {
    EXPECT_EQ(topo.path_stats()[p].residual_flows, 0);
    for (const std::size_t l : path_hops[p]) {
      EXPECT_LE(topo.path_service_kbit(p),
                topo.link_service_kbit(l) * (1.0 + 1e-12) + 1e-9);
    }
  }
  return adds;
}

TEST(TopologyProperty, RandomTopologiesHoldInvariantsOver200Cases) {
  int total_adds = 0;
  for (std::uint64_t seed = 1; seed <= 220; ++seed) {
    SCOPED_TRACE(testing::Message() << "case seed " << seed);
    total_adds += run_oracle_case(seed);
    if (testing::Test::HasFatalFailure()) return;
  }
  // The generator actually exercised flows (not a vacuous pass).
  EXPECT_GT(total_adds, 220 * 10);
}

TEST(TopologyProperty, OneHopPathIsBitIdenticalToPlainLink) {
  // The degenerate arithmetic claim at the oracle level: a 1-link topology
  // and a bare Link driven through the same schedule agree to the last bit
  // on every service value, completion prediction and accounting integral.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(testing::Message() << "case seed " << seed);
    Rng rng(seed * 977);
    const BandwidthTrace trace = random_trace(rng);
    Link link(trace);
    Topology topo(TopologySpec::single(trace));
    Channel& path = topo.path_channel(0);

    double now = 0.0;
    int active = 0;
    for (int e = 0; e < 60; ++e) {
      now += rng.exponential(0.7);
      const bool add = active == 0 || rng.bernoulli(0.5);
      if (add) {
        const double link_v = link.add_flow(now);
        const double path_v = path.add_flow(now);
        EXPECT_EQ(link_v, path_v);
        ++active;
      } else {
        link.remove_flow(now);
        path.remove_flow(now);
        --active;
      }
      const double probe = now + rng.uniform(0.0, 30.0);
      EXPECT_EQ(link.service_at(probe), path.service_at(probe));
      const double target = link.service_at(now) + rng.uniform(1.0, 50000.0);
      EXPECT_EQ(link.time_when_service_reaches(target),
                path.time_when_service_reaches(target));
      EXPECT_EQ(link.active_flows(), path.active_flows());
      EXPECT_EQ(link.epoch(), path.epoch());
    }
    while (active-- > 0) {
      now += 0.25;
      link.remove_flow(now);
      path.remove_flow(now);
    }
    link.finalize(now + 3.0);
    topo.finalize(now + 3.0);
    const LinkStats stats = topo.link_stats()[0];
    EXPECT_EQ(link.busy_s(), stats.busy_s);
    EXPECT_EQ(link.flow_seconds(), stats.flow_seconds);
    EXPECT_EQ(link.offered_kbit(), stats.offered_kbit);
    EXPECT_EQ(link.delivered_kbit(), stats.delivered_kbit);
    EXPECT_EQ(link.peak_flows(), stats.peak_flows);
  }
}

// --- 3. Regression tests. ---

TEST(TopologyRegression, SharedLinkFinalizeOnNeverUsedLink) {
  // Idle-tail accounting: a link nobody ever rode still closes its books.
  // Both links carry a declared path, but no flow is ever added to either.
  TopologySpec spec;
  const std::size_t idle_link = spec.add_link("idle", BandwidthTrace::constant(1000.0));
  const std::size_t dead_link = spec.add_link("dead", BandwidthTrace::constant(0.0));
  spec.add_path("to_idle", {idle_link});
  spec.add_path("to_dead", {dead_link});
  Topology topo(std::move(spec));
  topo.finalize(120.0);

  const std::vector<LinkStats> stats = topo.link_stats();
  ASSERT_EQ(stats.size(), 2u);
  const LinkStats& idle = stats[idle_link];
  EXPECT_DOUBLE_EQ(idle.observed_s, 120.0);
  EXPECT_DOUBLE_EQ(idle.busy_s, 0.0);
  EXPECT_DOUBLE_EQ(idle.delivered_kbit, 0.0);
  EXPECT_DOUBLE_EQ(idle.offered_kbit, 120.0 * 1000.0);
  EXPECT_DOUBLE_EQ(idle.utilization(), 0.0);
  EXPECT_DOUBLE_EQ(idle.avg_flows(), 0.0);
  EXPECT_EQ(idle.residual_flows, 0);

  // 0/0 guard: a zero-capacity link offers nothing; utilization must come
  // back 0, not NaN.
  const LinkStats& dead = stats[dead_link];
  EXPECT_DOUBLE_EQ(dead.offered_kbit, 0.0);
  EXPECT_DOUBLE_EQ(dead.utilization(), 0.0);
  EXPECT_FALSE(std::isnan(dead.utilization()));
}

TEST(TopologyRegression, NeverUsedTopologyLinkFinalizesClean) {
  // A declared link that no path traverses (a provisioned-but-dark pipe)
  // must finalize with pure idle books and not disturb its neighbours.
  TopologySpec spec;
  const std::size_t used = spec.add_link("used", BandwidthTrace::constant(2000.0));
  spec.add_link("dark", BandwidthTrace::constant(0.0));
  spec.add_path("only", {used});
  Topology topo(std::move(spec));

  Channel& path = topo.path_channel(0);
  path.add_flow(1.0);
  path.remove_flow(11.0);
  topo.finalize(20.0);

  const std::vector<LinkStats> stats = topo.link_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[0].busy_s, 10.0);
  EXPECT_DOUBLE_EQ(stats[1].observed_s, 20.0);
  EXPECT_DOUBLE_EQ(stats[1].busy_s, 0.0);
  EXPECT_DOUBLE_EQ(stats[1].utilization(), 0.0);
  EXPECT_FALSE(std::isnan(stats[1].utilization()));
  EXPECT_EQ(stats[1].peak_flows, 0);
  EXPECT_EQ(stats[1].residual_flows, 0);
}

TEST(TopologyRegression, CompletionRekeyedWhenBindingConstraintMoves) {
  // Path A rides edge(1000) → core(3000): binding starts at the edge. Five
  // flows then pile onto the core via path B, dropping the core's fair
  // share to 500 < 1000 — the binding constraint moves mid-flow, A's epoch
  // bumps, and the (lazily re-keyed) completion prediction shifts later.
  TopologySpec spec;
  const std::size_t core = spec.add_link("core", BandwidthTrace::constant(3000.0));
  const std::size_t edge = spec.add_link("edge", BandwidthTrace::constant(1000.0));
  const std::size_t path_a = spec.add_path("a", {edge, core});
  const std::size_t path_b = spec.add_path("b", {core});
  Topology topo(std::move(spec));

  Channel& a = topo.path_channel(path_a);
  Channel& b = topo.path_channel(path_b);

  const double v_start = a.add_flow(0.0);
  const double target = v_start + 10000.0;  // 10 Mbit at 1000 kbps -> t=10
  a.register_completion(0, target);
  EXPECT_DOUBLE_EQ(a.earliest_completion_time(), 10.0);

  EventHeap heap(/*session_count=*/1, /*link_count=*/2);
  heap.sync_link(0, a);
  heap.sync_link(1, b);
  const std::uint64_t checks_before = heap.stats().sync_checks;
  const std::uint64_t refreshes_before = heap.stats().sync_refreshes;

  // Re-sync without any population change: the epoch cache must swallow it.
  heap.sync_link(0, a);
  EXPECT_EQ(heap.stats().sync_checks, checks_before + 1);
  EXPECT_EQ(heap.stats().sync_refreshes, refreshes_before);

  const std::uint64_t epoch_before = a.epoch();
  for (int i = 0; i < 5; ++i) b.add_flow(2.0);
  // A population change on a sibling path sharing the core bumps A's epoch…
  EXPECT_GT(a.epoch(), epoch_before);
  // …and the re-derived completion lands later: 2 Mbit done in the first
  // 2 s at 1000 kbps, the remaining 8 Mbit now trickles at core/6 = 500.
  EXPECT_DOUBLE_EQ(a.earliest_completion_time(), 2.0 + 8000.0 / 500.0);

  // The lazy sync notices exactly one stale entry and re-keys it.
  const std::uint64_t refreshes_mid = heap.stats().sync_refreshes;
  heap.sync_link(0, a);
  heap.sync_link(1, b);
  EXPECT_EQ(heap.stats().sync_refreshes, refreshes_mid + 2);  // both paths moved
  EXPECT_TRUE(heap.stats().sync_checks >= heap.stats().sync_refreshes);

  a.unregister_completion(0);
  a.remove_flow(4.0);
  for (int i = 0; i < 5; ++i) b.remove_flow(4.0);
  topo.finalize(5.0);
  for (const LinkStats& link : topo.link_stats()) {
    EXPECT_EQ(link.residual_flows, 0) << link.name;
  }
}

TEST(TopologyRegression, EventHeapSyncCountersReconcileOnTopologyFleet) {
  // Fleet-level: the sync counters surface through the profile and must
  // reconcile (every refresh was a check). On a topology fleet the engine
  // syncs only the dirty set — channels whose epochs moved since the last
  // phase — so every check refreshes: wasted checks would mean the dirty
  // list over-approximates the stale set.
  const ex::ExperimentSetup setup = ex::plain_dash(ex::varying_600_trace(), "sync");
  FleetConfig config = base_config(8, 17);
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 3.0;
  config.topology = TopologySpec::sharded(
      2, BandwidthTrace::constant(4000.0), BandwidthTrace::constant(1500.0),
      BandwidthTrace::constant(3600.0));
  config.engine = Engine::kEventHeap;
  const FleetResult result = run_fleet(
      setup.content, setup.view, BandwidthTrace::constant(1000.0), config);

  EXPECT_GT(result.profile.link_sync_checks, 0u);
  EXPECT_GT(result.profile.link_sync_refreshes, 0u);
  EXPECT_EQ(result.profile.link_sync_checks, result.profile.link_sync_refreshes);
}

TEST(TopologyRegression, DoubleRemoveIsCountedAndClamped) {
  TopologySpec spec;
  const std::size_t core = spec.add_link("core", BandwidthTrace::constant(3000.0));
  const std::size_t edge = spec.add_link("edge", BandwidthTrace::constant(1000.0));
  spec.add_path("p", {edge, core});
  Topology topo(std::move(spec));
  Channel& path = topo.path_channel(0);
  path.add_flow(0.0);
  path.remove_flow(1.0);
  EXPECT_EQ(topo.double_removes(), 0u);
#ifdef NDEBUG
  // Release: count it and clamp at zero on the path and every hop rather
  // than corrupting processor sharing for the other flows.
  path.remove_flow(2.0);
  EXPECT_EQ(topo.double_removes(), 1u);
  EXPECT_EQ(path.active_flows(), 0);
  EXPECT_EQ(topo.link_active_flows(edge), 0);
  EXPECT_EQ(topo.link_active_flows(core), 0);
  // The path stays functional after the clamp: accounting is not corrupt.
  const double v0 = path.add_flow(3.0);
  EXPECT_DOUBLE_EQ(path.service_at(4.0) - v0, 1000.0);
  EXPECT_EQ(path.active_flows(), 1);
#else
  // Debug: a double remove is an engine bug and asserts.
  EXPECT_DEATH(path.remove_flow(2.0), "remove_flow");
#endif
}

/// A malformed spec must fail closed at the fleet entry point — serial and
/// sharded — with validate()'s message, never run on undefined state.
void expect_run_fleet_rejects(const TopologySpec& spec) {
  const std::string problem = spec.validate();
  EXPECT_NE(problem, "");
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1000.0), "malformed");
  FleetConfig config = base_config(3);
  config.topology = spec;
  for (const int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    config.threads = threads;
    try {
      run_fleet(setup.content, setup.view, BandwidthTrace::constant(1000.0), config);
      ADD_FAILURE() << "run_fleet accepted a malformed spec: " << problem;
    } catch (const std::invalid_argument& error) {
      EXPECT_EQ(std::string(error.what()), problem);
    }
  }
}

TEST(TopologySpecValidate, RejectsMalformedSpecs) {
  TopologySpec empty;
  expect_run_fleet_rejects(empty);

  TopologySpec no_paths;
  no_paths.add_link("l", BandwidthTrace::constant(1.0));
  expect_run_fleet_rejects(no_paths);

  TopologySpec bad_hop;
  bad_hop.add_link("l", BandwidthTrace::constant(1.0));
  bad_hop.add_path("p", {3});
  expect_run_fleet_rejects(bad_hop);

  TopologySpec dup_hop;
  const std::size_t l = dup_hop.add_link("l", BandwidthTrace::constant(1.0));
  dup_hop.add_path("p", {l, l});
  expect_run_fleet_rejects(dup_hop);

  TopologySpec bad_assignment = TopologySpec::single(BandwidthTrace::constant(1.0));
  bad_assignment.video_assignment = {4};
  expect_run_fleet_rejects(bad_assignment);

  TopologySpec negative_edge = TopologySpec::single(BandwidthTrace::constant(1.0));
  negative_edge.links[0].cache = CacheSpec{-5, -1};
  expect_run_fleet_rejects(negative_edge);

  EXPECT_EQ(TopologySpec::single(BandwidthTrace::constant(1.0)).validate(), "");
  EXPECT_EQ(TopologySpec::sharded(3, BandwidthTrace::constant(1.0),
                                  BandwidthTrace::constant(1.0),
                                  BandwidthTrace::constant(1.0))
                .validate(),
            "");
  const std::vector<std::size_t> blocks = TopologySpec::block_assignment(3, 2);
  EXPECT_EQ(blocks, (std::vector<std::size_t>{0, 0, 1, 1, 2, 2}));
}

}  // namespace
}  // namespace demuxabr::fleet
