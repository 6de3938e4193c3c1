// Fleet-level aggregate metrics: the cross-client view the paper's
// single-session figures cannot show — fairness of the bitrate allocation,
// the stall-ratio tail, link utilization and the A/V buffer-imbalance
// distribution (§3.4) across a whole population.
#pragma once

#include <string>
#include <vector>

#include <cstdint>
#include <optional>

#include "fleet/cdn_fleet.h"
#include "media/track.h"
#include "net/topology.h"
#include "obs/profile.h"
#include "obs/telemetry.h"
#include "sim/metrics.h"
#include "util/sketch.h"
#include "util/stats.h"

namespace demuxabr::fleet {

/// Outcome of one client of a fleet run.
struct ClientResult {
  int id = 0;
  std::string player;
  double arrival_s = 0.0;
  bool departed_early = false;  ///< churned out before content end
  /// Indices into FleetResult::paths of the paths this client's media rode
  /// (audio == video unless the spec splits audio); 0 on a single-link
  /// fleet.
  int video_path = 0;
  int audio_path = 0;
  SessionLog log;
  QoeReport qoe;
};

/// O(1)-per-client aggregation of a fleet run for streaming-metrics mode:
/// above FleetConfig::streaming.client_threshold the scheduler retires each
/// client into this instead of keeping its ClientResult, so resident memory
/// is O(shards + sketch buckets) rather than O(clients × log length). Every
/// field merges associatively and commutatively — integer counts, exact
/// moment sums (Jain fairness needs only Σx and Σx²) and mergeable
/// QuantileSketches — so per-shard instances pooled in shard-id order equal
/// the aggregate of the whole population (DESIGN.md §10).
struct StreamingFleetStats {
  std::size_t clients = 0;
  std::size_t completed = 0;
  std::size_t departed_early = 0;
  double qoe_sum = 0.0;
  /// Aggregate simulated session-seconds (Σ end − arrival): the
  /// sim-throughput numerator benchmarks report when no per-client logs
  /// exist to sum over.
  double active_s_sum = 0.0;
  /// First and second moments of the per-client fairness variables.
  double video_kbps_sum = 0.0;
  double video_kbps_sq_sum = 0.0;
  double throughput_sum = 0.0;
  double throughput_sq_sum = 0.0;
  QuantileSketch video_kbps;
  QuantileSketch stall_ratio;
  QuantileSketch startup_delay_s;
  QuantileSketch buffer_imbalance_s;

  /// Per-video-path accumulators, indexed like FleetResult::paths and sized
  /// to the fleet's path count before any client is added. Enough for the
  /// PathGroup table: counts, moments and the stall-ratio sum.
  struct PathAcc {
    std::size_t clients = 0;
    double video_sum = 0.0;
    double video_sq_sum = 0.0;
    double throughput_sum = 0.0;
    double throughput_sq_sum = 0.0;
    double stall_ratio_sum = 0.0;
  };
  std::vector<PathAcc> paths;

  explicit StreamingFleetStats(double relative_error = 0.01);

  /// Fold one retired client in. The scalars mirror compute_fleet_metrics'
  /// per-client derivations exactly.
  void add_client(const ClientResult& client);

  /// Pool `other` into this. `path_map` (when given) maps other.paths
  /// indices to this->paths indices — the shard runner's local→global path
  /// renumbering; nullptr means identical indexing.
  void merge(const StreamingFleetStats& other,
             const std::vector<std::size_t>* path_map = nullptr);
};

/// Outcome of one fleet run: per-client results (client-id order) plus
/// per-link and per-path accounting.
struct FleetResult {
  std::vector<ClientResult> clients;
  /// Streaming-metrics mode only: the O(shards) aggregate that replaces
  /// `clients` (which stays empty) above the streaming threshold.
  std::optional<StreamingFleetStats> streaming;
  /// Order-invariant digest of every client's outcome scalars (wrapping sum
  /// of per-client FNV-1a hashes over SessionTotals + lifecycle fields).
  /// Identical across engines, thread counts and streaming/full modes — the
  /// determinism handle when per-client logs are not retained.
  std::uint64_t client_digest = 0;
  /// Both alias links.front(); kept for perfbench/ and other single-link
  /// readers. Read `links` for every link of a split or multi-link fleet.
  LinkStats video_link;
  LinkStats audio_link;
  /// Per-link stats in link-declaration order plus per-path closing
  /// summaries. A fleet without FleetConfig::topology has one link
  /// ("bottleneck") and one path.
  std::vector<LinkStats> links;
  std::vector<PathSummary> paths;
  /// Cache-aware runs: per-CDN-node closing stats, ascending link index
  /// (fleet/cdn_fleet.h). Part of the fingerprint — all-integer counters.
  std::vector<CdnStats> cdns;
  bool split_audio = false;
  double end_time_s = 0.0;  ///< wall time at which the last client finished
  /// Engine work units executed: global barriers (kBarrier) or heap events
  /// (kEventHeap). Diagnostic only — excluded from fleet_fingerprint.
  std::size_t steps = 0;
  /// Double removes the topology clamped (Topology::double_removes();
  /// summed across shards). Anything but 0 is an engine bug; bench_fleet
  /// exits 1 on it. Excluded from fleet_fingerprint.
  std::uint64_t double_removes = 0;
  /// Engine self-profile: heap counters always (event-heap engine), phase
  /// wall-clock when FleetConfig::profile. Diagnostic only — excluded from
  /// fleet_fingerprint.
  obs::EngineProfile profile;
  /// Time-binned fleet health series (obs/telemetry.h), populated when
  /// FleetConfig::telemetry.enabled. Part of the fingerprint: the
  /// all-integer timeline block is byte-identical across engines, thread
  /// counts and metrics modes.
  std::optional<obs::FleetTimeline> timeline;
};

/// Cross-client aggregates of one fleet run.
struct FleetMetrics {
  int clients = 0;
  int completed = 0;       ///< playhead reached content end
  int departed_early = 0;  ///< churned out

  /// Jain fairness of per-client average selected video bitrate.
  double jain_fairness_video = 0.0;
  /// Jain fairness of per-client download throughput (bytes / active time).
  double jain_fairness_throughput = 0.0;

  PercentileSummary video_kbps;          ///< per-client avg selected video bitrate
  PercentileSummary stall_ratio;         ///< per-client stall_s / session wall time
  PercentileSummary startup_delay_s;     ///< per-client startup delay
  PercentileSummary buffer_imbalance_s;  ///< per-client mean |audio - video| buffer

  double mean_qoe = 0.0;

  /// Per-path aggregates (the per-edge fairness table of EXPERIMENTS.md),
  /// grouped by the clients' video path; one group for a single-link
  /// fleet.
  struct PathGroup {
    std::string name;
    int clients = 0;
    double jain_fairness_video = 0.0;
    double jain_fairness_throughput = 0.0;
    double mean_video_kbps = 0.0;
    double mean_stall_ratio = 0.0;
  };
  std::vector<PathGroup> path_groups;
};

/// Aggregate a fleet run; per-client QoE must already be populated (the
/// scheduler does this). Streaming-mode results aggregate from the
/// StreamingFleetStats instead of the (empty) client vector; percentile
/// fields are then sketch-approximate (within the sketch's relative error),
/// counts/means/fairness exact.
FleetMetrics compute_fleet_metrics(const FleetResult& result);

/// FNV-1a hash of one client's outcome scalars (the SessionTotals choke-
/// point aggregates plus lifecycle fields) — every input is bit-identical
/// across engines and log modes. Summed with wraparound into
/// FleetResult::client_digest so the total is independent of retirement
/// and merge order.
std::uint64_t client_outcome_digest(const ClientResult& client);

/// Deterministic serialization of everything that identifies a fleet
/// outcome: per-client arrival/departure/selection/stall/download accounting
/// plus per-link stats. Two runs are behaviourally identical iff their
/// fingerprints compare equal — the determinism contract of
/// tests/test_fleet.cpp.
std::string fleet_fingerprint(const FleetResult& result);

/// Human-readable report block (fleet_demo, bench_fleet stdout).
std::string summarize(const FleetResult& result, const FleetMetrics& metrics);

}  // namespace demuxabr::fleet
