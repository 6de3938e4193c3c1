// Client-population modelling for fleet simulations: who joins, when, with
// which player, and how long they stay. Everything is derived from a single
// seed through util/Rng in client-id order, so a FleetConfig maps to exactly
// one population on every platform.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "httpsim/catalog.h"
#include "net/topology.h"
#include "obs/telemetry.h"
#include "sim/player.h"
#include "sim/session.h"

namespace demuxabr::fleet {

/// One entry of the player mix: clients draw a player proportionally to
/// `weight` (a population of 70% ExoPlayer / 30% Shaka is two shares).
struct PlayerShare {
  std::string label;
  PlayerFactory factory;
  double weight = 1.0;
};

enum class ArrivalProcess {
  kSimultaneous,   ///< everyone at t = 0 (flash crowd)
  kDeterministic,  ///< fixed spacing of arrival_interval_s
  kPoisson,        ///< seeded exponential inter-arrivals at arrival_rate_per_s
};

/// Early-abandon (churn) model: each client independently leaves with
/// `leave_probability`, after a watch duration drawn uniformly from
/// [min_watch_s, max_watch_s].
struct ChurnConfig {
  double leave_probability = 0.0;
  double min_watch_s = 30.0;
  double max_watch_s = 120.0;
};

/// Which scheduling engine drives the fleet. Both produce bit-identical
/// results (tests/test_fleet.cpp cross-validates); they differ only in cost
/// per event — O(N) for the barrier reference engine, O(log N) for the
/// event heap (DESIGN.md §7 "Engine modes").
enum class Engine {
  kBarrier,    ///< reference: global phase barriers over all active sessions
  kEventHeap,  ///< default: indexed event heap + per-link completion registry
};

/// Streaming-metrics mode switch (DESIGN.md §10): fleets at or above
/// `client_threshold` clients drop per-session logs and aggregate into
/// mergeable sketches (fleet/metrics.h StreamingFleetStats, at
/// QuantileSketch's default relative error) as clients retire. Default =
/// never.
struct StreamingMetricsConfig {
  std::size_t client_threshold = std::numeric_limits<std::size_t>::max();

  [[nodiscard]] bool enabled_for(std::size_t clients) const {
    return clients >= client_threshold;
  }
};

struct FleetConfig {
  int client_count = 2;
  std::uint64_t seed = 1;
  Engine engine = Engine::kEventHeap;

  /// Worker threads for parallel shard execution (fleet/shard.h): a
  /// multi-component topology is partitioned into causally independent
  /// shards that run concurrently and merge deterministically. 1 = today's
  /// fully serial path; 0 = hardware_threads(). Results are
  /// byte-identical for every value (tests/test_fleet_shard.cpp).
  int threads = 1;

  StreamingMetricsConfig streaming;

  ArrivalProcess arrivals = ArrivalProcess::kSimultaneous;
  double arrival_interval_s = 2.0;  ///< kDeterministic spacing
  double arrival_rate_per_s = 0.5;  ///< kPoisson rate

  /// Weighted player mix; must be non-empty (plan_population throws).
  std::vector<PlayerShare> players;

  ChurnConfig churn;

  /// Base per-client session config. `start_time_s` is overwritten with the
  /// client's arrival; `max_sim_time_s` is interpreted as the per-client
  /// simulated-time budget (the absolute cap becomes arrival + budget).
  SessionConfig session;

  /// Per-request RTT of every client's network.
  double rtt_s = 0.05;

  /// The fleet's topology (net/topology.h): every client rides a *path*
  /// of shared links (client → edge → core) chosen by the spec's
  /// assignment vectors. Unset = TopologySpec::single(bottleneck), the
  /// bottleneck trace passed to the scheduler, which is ignored otherwise.
  std::optional<TopologySpec> topology;

  /// Cache-aware fleets (fleet/cdn_fleet.h): configuration of the CDN nodes
  /// declared via CacheSpec-bearing topology links. Ignored when no link
  /// carries a cache.
  struct CdnConfig {
    /// Storage mode of the origin catalog (the paper's §1 axis): demuxed
    /// audio/video objects vs muxed A×V combination objects.
    StorageMode storage = StorageMode::kDemuxed;
    /// Pre-built origin catalog, shared read-only across shards. Null = the
    /// scheduler builds one from its Content in `storage` mode (the shard
    /// runner builds it once and injects it into every shard).
    std::shared_ptr<const ObjectCatalog> catalog;
  };
  CdnConfig cdn;

  /// Collect per-phase wall-clock timings of the engine loop into
  /// FleetResult::profile (obs/profile.h). Purely observational — results
  /// are bit-identical with it on or off; leave off for perf baselines
  /// (clock reads per phase are not free).
  bool profile = false;

  /// Time-binned fleet telemetry (obs/telemetry.h): when enabled, the run
  /// accumulates per-bin fleet/link/CDN health series into
  /// FleetResult::timeline with O(shards × bins) memory. Purely
  /// observational — simulation results are bit-identical with it on or
  /// off, and the timeline itself is byte-identical across engines and
  /// thread counts.
  obs::TelemetryConfig telemetry;
};

/// One planned client, fully determined before the simulation starts.
struct ClientPlan {
  int id = 0;
  double arrival_s = 0.0;
  std::size_t player_index = 0;  ///< into FleetConfig::players
  std::string player_label;
  /// Absolute wall time at which the client abandons the session;
  /// +infinity when the client stays to the end.
  double leave_at_s = std::numeric_limits<double>::infinity();
};

/// Expand a FleetConfig into its population, sorted by arrival time (ties
/// keep id order). Deterministic in config.seed. Throws
/// std::invalid_argument when `players` is empty, `client_count` is
/// negative, the active arrival process's rate (Poisson: finite and > 0) or
/// interval (deterministic: finite and >= 0) is out of range, the churn
/// probability lies outside [0, 1], or the watch window does not satisfy
/// 0 <= min_watch_s <= max_watch_s with both finite.
std::vector<ClientPlan> plan_population(const FleetConfig& config);

}  // namespace demuxabr::fleet
