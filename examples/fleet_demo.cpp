// fleet_demo: a dozen mixed-player clients contending on one shared
// bottleneck. Shows the fleet API end to end — population planning (Poisson
// arrivals, weighted player mix, churn), the shared-link scheduler, per-client
// outcomes, aggregate metrics, and the determinism fingerprint — then runs a
// small seed-replication fan-out on the thread pool and the same population
// over a sharded client → edge → core topology (per-link stats, per-edge
// fairness, bottleneck attribution).
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "fleet/scheduler.h"
#include "fleet/topology.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"

using namespace demuxabr;
namespace ex = demuxabr::experiments;

int main() {
  // Paper-style workload: drama content on a 5 Mbps pipe that all clients
  // share. With ~4 concurrent viewers the fair share sits near the middle of
  // the ladder, so ABR decisions actually interact.
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::square_wave(3000.0, 7000.0, 20.0, 20.0, true),
                     "fleet-demo");

  fleet::FleetConfig config;
  config.client_count = 12;
  config.seed = 7;
  config.arrivals = fleet::ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.2;  // one viewer every ~5 s on average
  config.players.push_back(
      {"exoplayer", [] { return std::make_unique<ExoPlayerModel>(); }, 0.5});
  config.players.push_back(
      {"dashjs", [] { return std::make_unique<DashJsPlayerModel>(); }, 0.3});
  config.players.push_back(
      {"coordinated", [] { return std::make_unique<CoordinatedPlayer>(); }, 0.2});
  config.churn.leave_probability = 0.25;
  config.churn.min_watch_s = 40.0;
  config.churn.max_watch_s = 150.0;
  config.session.max_sim_time_s = 1800.0;

  std::printf("=== population plan (seed %llu) ===\n",
              static_cast<unsigned long long>(config.seed));
  for (const fleet::ClientPlan& plan : fleet::plan_population(config)) {
    if (plan.leave_at_s < 1e17) {
      std::printf("  client %2d  %-12s arrives %6.1fs  churns out at %6.1fs\n",
                  plan.id, plan.player_label.c_str(), plan.arrival_s,
                  plan.leave_at_s);
    } else {
      std::printf("  client %2d  %-12s arrives %6.1fs  watches to the end\n",
                  plan.id, plan.player_label.c_str(), plan.arrival_s);
    }
  }

  const fleet::FleetResult result =
      fleet::run_fleet(setup.content, setup.view, setup.trace, config);

  std::printf("\n=== per-client outcomes ===\n");
  for (const fleet::ClientResult& client : result.clients) {
    // Mean bitrate of the video chunks this client fetched (fleet sessions
    // record no series). qoe.avg_video_kbps divides by every chunk of the
    // clip instead, which understates clients who churned.
    const SessionTotals& totals = client.log.totals;
    const double kbps = totals.video_chunks > 0
                            ? totals.video_kbps_sum / totals.video_chunks
                            : 0.0;
    std::printf(
        "  client %2d  %-12s avg video %6.0f kbps  stalls %zu (%5.1fs)  %s\n",
        client.id, client.player.c_str(), kbps, client.log.stall_count(),
        client.log.total_stall_s(),
        client.departed_early ? "left early"
                              : (client.log.completed ? "completed" : "capped"));
  }

  const fleet::FleetMetrics metrics = fleet::compute_fleet_metrics(result);
  std::printf("\n%s", fleet::summarize(result, metrics).c_str());

  // Determinism contract: the fingerprint hashes everything behavioural.
  const std::size_t fp =
      std::hash<std::string>{}(fleet::fleet_fingerprint(result));
  std::printf("\nfingerprint: %016zx (same seed => same value, any machine)\n", fp);

  // Seed replications fan out across the thread pool; order and content of
  // the results are independent of the thread count.
  fleet::ReplicationOptions options;
  options.replications = 3;
  options.threads = 0;  // default pool size
  std::printf("\n=== %d seed replications ===\n", options.replications);
  for (const fleet::FleetReplication& rep : fleet::run_replications(
           setup.content, setup.view, setup.trace, config, options)) {
    std::printf(
        "  seed %3llu: mean QoE %7.1f, jain(video) %.3f, stall p90 %.3f\n",
        static_cast<unsigned long long>(rep.seed), rep.metrics.mean_qoe,
        rep.metrics.jain_fairness_video, rep.metrics.stall_ratio.p90);
  }

  // The same 12 clients over a multi-link topology (DESIGN.md §9): three
  // access → edge shards of 4 clients each, funnelling into one undersized
  // core so the binding constraint moves between the edge and core layers.
  // The shared trace argument is ignored once a topology is set.
  config.topology = fleet::TopologySpec::sharded(
      3, BandwidthTrace::constant(10000.0), BandwidthTrace::constant(3600.0),
      BandwidthTrace::constant(8400.0));
  config.topology->video_assignment = fleet::TopologySpec::block_assignment(3, 4);
  const fleet::FleetResult topo_result =
      fleet::run_fleet(setup.content, setup.view, setup.trace, config);
  const fleet::FleetMetrics topo_metrics = fleet::compute_fleet_metrics(topo_result);
  std::printf("\n=== sharded topology: 3 edges x 4 clients -> 1 core ===\n%s",
              fleet::summarize(topo_result, topo_metrics).c_str());
  // Per-path bottleneck attribution: binding_s is per-hop busy time of the
  // *path* (summed over its flows' wall clock), so a path's row sums to its
  // own busy seconds, not the fleet's.
  std::printf("\n=== bottleneck attribution (binding seconds per hop) ===\n");
  for (const fleet::PathSummary& path : topo_result.paths) {
    std::printf("  %-10s", path.name.c_str());
    for (std::size_t h = 0; h < path.hop_names.size(); ++h) {
      std::printf("  %s=%.1fs", path.hop_names[h].c_str(), path.binding_s[h]);
    }
    std::printf("\n");
  }
  return 0;
}
