// The processor-sharing carrier on its own: a one-link Topology (what
// Network::shared builds for a solo session) driven flow by flow, and the
// shared and split Networks built on it.
#include "net/topology.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace demuxabr {
namespace {

TEST(Link, ProcessorSharingSplitsCapacity) {
  Topology topo(TopologySpec::single(BandwidthTrace::constant(1000.0)));
  Channel& link = topo.path_channel(0);
  EXPECT_DOUBLE_EQ(topo.link_fair_share_at(0, 0.0), 1000.0);  // idle: quoted full rate
  link.add_flow(0.0);
  EXPECT_DOUBLE_EQ(topo.link_fair_share_at(0, 0.0), 1000.0);
  link.add_flow(0.0);
  EXPECT_DOUBLE_EQ(topo.link_fair_share_at(0, 0.0), 500.0);
  link.remove_flow(0.0);
  EXPECT_DOUBLE_EQ(topo.link_fair_share_at(0, 0.0), 1000.0);
}

TEST(Link, PeakFlowsTracksHighWaterMark) {
  Topology topo(TopologySpec::single(BandwidthTrace::constant(1000.0)));
  Channel& link = topo.path_channel(0);
  EXPECT_EQ(link.peak_flows(), 0);
  link.add_flow(0.0);
  link.add_flow(0.0);
  link.add_flow(0.0);
  link.remove_flow(0.0);
  link.remove_flow(0.0);
  EXPECT_EQ(link.active_flows(), 1);
  EXPECT_EQ(link.peak_flows(), 3);
  link.add_flow(0.0);
  EXPECT_EQ(link.peak_flows(), 3);  // below the high-water mark
}

TEST(Link, PeakFlowsSurvivesFinalize) {
  Topology topo(TopologySpec::single(BandwidthTrace::constant(1000.0)));
  Channel& link = topo.path_channel(0);
  link.add_flow(0.0);
  link.add_flow(0.0);
  link.remove_flow(1.0);
  link.remove_flow(2.0);  // drained to zero
  EXPECT_EQ(link.peak_flows(), 2);
  // Closing the books must not reset the cross-run high-water mark — the
  // fleet scheduler reads peak_flows *after* finalize().
  topo.finalize(10.0);
  EXPECT_EQ(link.peak_flows(), 2);
  EXPECT_EQ(link.active_flows(), 0);
  const LinkStats stats = topo.link_stats()[0];
  EXPECT_EQ(stats.peak_flows, 2);
  EXPECT_DOUBLE_EQ(stats.observed_s, 10.0);
}

TEST(Link, CapacityFollowsTrace) {
  // 300 kbps for 10 s, then 900 kbps for 10 s.
  Topology topo(
      TopologySpec::single(BandwidthTrace::square_wave(300.0, 900.0, 10.0, 10.0)));
  EXPECT_DOUBLE_EQ(topo.link_fair_share_at(0, 5.0), 300.0);
  EXPECT_DOUBLE_EQ(topo.link_fair_share_at(0, 15.0), 900.0);
  // The capacity changes at the trace boundary.
  EXPECT_DOUBLE_EQ(topo.link_fair_share_at(0, 9.9), 300.0);
  EXPECT_DOUBLE_EQ(topo.link_fair_share_at(0, 10.0), 900.0);
}

TEST(Link, ServiceIntegralAccruesPerFlow) {
  Topology topo(TopologySpec::single(BandwidthTrace::constant(1000.0)));
  Channel& link = topo.path_channel(0);
  // A lone flow receives the full 1000 kbps: after 2 s it has 2000 kbit.
  const double v0 = link.add_flow(0.0);
  EXPECT_DOUBLE_EQ(v0, 0.0);
  EXPECT_DOUBLE_EQ(link.service_at(2.0) - v0, 2000.0);
  // A second flow joins at t=2: service now accrues at 500 kbit/s per flow.
  const double v1 = link.add_flow(2.0);
  EXPECT_DOUBLE_EQ(v1, 2000.0);
  EXPECT_DOUBLE_EQ(link.service_at(4.0) - v1, 1000.0);
  // The first flow's total = shared prefix + shared suffix.
  EXPECT_DOUBLE_EQ(link.service_at(4.0) - v0, 3000.0);
}

TEST(Link, ServiceIntegralWalksTraceSegments) {
  // 300 kbps for 10 s, then 900 kbps for 10 s.
  Topology topo(
      TopologySpec::single(BandwidthTrace::square_wave(300.0, 900.0, 10.0, 10.0)));
  Channel& link = topo.path_channel(0);
  link.add_flow(0.0);
  EXPECT_DOUBLE_EQ(link.service_at(10.0), 3000.0);
  EXPECT_DOUBLE_EQ(link.service_at(12.0), 3000.0 + 1800.0);
}

TEST(Link, TimeWhenServiceReachesInvertsTheIntegral) {
  Topology topo(
      TopologySpec::single(BandwidthTrace::square_wave(300.0, 900.0, 10.0, 10.0)));
  Channel& link = topo.path_channel(0);
  link.add_flow(0.0);
  // 1500 kbit at 300 kbps -> t = 5.
  EXPECT_DOUBLE_EQ(link.time_when_service_reaches(1500.0), 5.0);
  // 3900 kbit: 3000 in the first segment + 900 at 900 kbps -> t = 11.
  EXPECT_DOUBLE_EQ(link.time_when_service_reaches(3900.0), 11.0);
  // Already-served targets report the channel clock (last mutation time).
  EXPECT_DOUBLE_EQ(link.clock_s(), 0.0);
  EXPECT_DOUBLE_EQ(link.time_when_service_reaches(-1.0), 0.0);
}

TEST(Link, TimeWhenServiceReachesOnIdleLinkIsNever) {
  Topology topo(TopologySpec::single(BandwidthTrace::constant(1000.0)));
  EXPECT_EQ(topo.path_channel(0).time_when_service_reaches(1.0),
            std::numeric_limits<double>::infinity());
}

TEST(Link, CompletionRegistryOrdersByTargetThenToken) {
  Topology topo(TopologySpec::single(BandwidthTrace::constant(1000.0)));
  Channel& link = topo.path_channel(0);
  link.add_flow(0.0);
  link.register_completion(7, 2000.0);
  link.register_completion(3, 1000.0);
  EXPECT_TRUE(link.has_completions());
  EXPECT_EQ(link.earliest_completion_token(), 3u);
  EXPECT_DOUBLE_EQ(link.earliest_completion_time(), 1.0);
  link.unregister_completion(3);
  EXPECT_EQ(link.earliest_completion_token(), 7u);
  EXPECT_DOUBLE_EQ(link.earliest_completion_time(), 2.0);
  link.unregister_completion(7);
  EXPECT_FALSE(link.has_completions());
  EXPECT_EQ(link.earliest_completion_time(),
            std::numeric_limits<double>::infinity());
}

TEST(Link, EpochBumpsOnEveryPopulationChange) {
  Topology topo(TopologySpec::single(BandwidthTrace::constant(1000.0)));
  Channel& link = topo.path_channel(0);
  const std::uint64_t e0 = link.epoch();
  link.add_flow(0.0);
  EXPECT_GT(link.epoch(), e0);
  const std::uint64_t e1 = link.epoch();
  link.remove_flow(1.0);
  EXPECT_GT(link.epoch(), e1);
}

TEST(Link, UtilizationIntegralsCoverIdleTime) {
  Topology topo(TopologySpec::single(BandwidthTrace::constant(1000.0)));
  Channel& link = topo.path_channel(0);
  link.add_flow(1.0);     // idle for [0, 1)
  link.remove_flow(3.0);  // busy for [1, 3)
  topo.finalize(4.0);     // idle tail [3, 4)
  const LinkStats stats = topo.link_stats()[0];
  EXPECT_DOUBLE_EQ(stats.observed_s, 4.0);
  EXPECT_DOUBLE_EQ(stats.busy_s, 2.0);
  EXPECT_DOUBLE_EQ(stats.flow_seconds, 2.0);
  EXPECT_DOUBLE_EQ(stats.offered_kbit, 4000.0);
  EXPECT_DOUBLE_EQ(stats.delivered_kbit, 2000.0);
}

TEST(Network, SharedLinkIsSameObject) {
  const Network net = Network::shared(BandwidthTrace::constant(700.0));
  EXPECT_EQ(&net.link_for(true), &net.link_for(false));
  net.link_for(true).add_flow(0.0);
  EXPECT_EQ(net.link_for(false).active_flows(), 1);
}

TEST(Network, SplitLinksAreIndependent) {
  const Network net = Network::split(BandwidthTrace::constant(700.0),
                                     BandwidthTrace::constant(200.0));
  EXPECT_NE(&net.link_for(true), &net.link_for(false));
  net.link_for(true).add_flow(0.0);
  EXPECT_EQ(net.link_for(false).active_flows(), 0);
  net.link_for(false).add_flow(0.0);
  // Each lone flow gets its own link's full capacity.
  EXPECT_DOUBLE_EQ(net.link_for(true).service_at(1.0), 700.0);
  EXPECT_DOUBLE_EQ(net.link_for(false).service_at(1.0), 200.0);
}

TEST(Network, DefaultRtt) {
  const Network net = Network::shared(BandwidthTrace::constant(700.0));
  EXPECT_DOUBLE_EQ(net.rtt_s, 0.05);
  const Network custom = Network::shared(BandwidthTrace::constant(700.0), 0.2);
  EXPECT_DOUBLE_EQ(custom.rtt_s, 0.2);
}

}  // namespace
}  // namespace demuxabr
