// Large-N differential topology test (N = 100), split out so it can carry
// the `fleet_large` ctest label: CI's coverage job excludes it (Debug +
// instrumentation makes it slow) while the regular Release test job runs it
// with a generous timeout.
#include <gtest/gtest.h>

#include <memory>

#include "experiments/scenarios.h"
#include "experiments/sweep.h"
#include "fleet/metrics.h"
#include "fleet/scheduler.h"
#include "net/topology.h"
#include "players/exoplayer.h"

namespace demuxabr::fleet {
namespace {

namespace ex = demuxabr::experiments;

std::unique_ptr<PlayerAdapter> make_exo() {
  return std::make_unique<ExoPlayerModel>();
}

TEST(TopologyCrossEngineLarge, HundredClientsOverTenShards) {
  const ex::ExperimentSetup setup = ex::plain_dash(ex::varying_600_trace(), "large");

  FleetConfig config;
  config.client_count = 100;
  config.seed = 31;
  config.players.push_back({"exoplayer", &make_exo, 1.0});
  config.session.max_sim_time_s = 600.0;
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 1.0;
  config.churn.leave_probability = 0.3;
  config.churn.min_watch_s = 30.0;
  config.churn.max_watch_s = 200.0;
  // 10 shards x 10 clients funnelling into one core: 21 links, with the
  // core undersized so cross-shard contention moves binding constraints.
  config.topology = TopologySpec::sharded(
      10, BandwidthTrace::constant(5000.0), BandwidthTrace::constant(2000.0),
      BandwidthTrace::constant(9000.0));
  config.topology->video_assignment = TopologySpec::block_assignment(10, 10);

  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  config.engine = Engine::kBarrier;
  const FleetResult barrier = run_fleet(setup.content, setup.view, unused, config);
  config.engine = Engine::kEventHeap;
  const FleetResult heap = run_fleet(setup.content, setup.view, unused, config);

  ASSERT_EQ(barrier.clients.size(), heap.clients.size());
  for (std::size_t i = 0; i < barrier.clients.size(); ++i) {
    EXPECT_EQ(ex::log_fingerprint(barrier.clients[i].log),
              ex::log_fingerprint(heap.clients[i].log))
        << "client " << barrier.clients[i].id;
  }
  EXPECT_EQ(fleet_fingerprint(barrier), fleet_fingerprint(heap));

  ASSERT_EQ(heap.links.size(), 21u);
  for (const LinkStats& link : heap.links) {
    EXPECT_EQ(link.residual_flows, 0) << link.name;
  }
  // Block assignment put exactly 10 clients on each shard.
  const FleetMetrics metrics = compute_fleet_metrics(heap);
  ASSERT_EQ(metrics.path_groups.size(), 10u);
  for (const auto& group : metrics.path_groups) {
    EXPECT_EQ(group.clients, 10) << group.name;
  }
}

}  // namespace
}  // namespace demuxabr::fleet
