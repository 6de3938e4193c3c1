// FleetScheduler: the multi-client discrete-event engine. Interleaves N
// StreamingSessions over the shared links of one Topology (net/
// topology.h) so processor sharing spans *sessions*, not just one client's
// audio/video flows — the workload class where the paper's §3.3
// mis-estimation and §3.4 buffer-imbalance pathologies compound across a
// population. Every fleet is a topology: one link when audio and video
// share a bottleneck (§3.3), two when they come from different servers
// (§4.1), client → edge → core paths at scale.
//
// Two engines produce bit-identical results (DESIGN.md §7 "Engine modes"):
//
//  * kBarrier (reference): every global step runs phase barriers across all
//    active sessions in client-id order — churn/retire, begin_step
//    (registrations), horizon = min over per-session next_event_time,
//    integrate_to(t*), process_events, admissions. O(N) per step.
//
//  * kEventHeap (default): an indexed min-heap keys each session on its own
//    next *local* event time and each path channel on its earliest
//    registered completion (re-keyed when the channel's flow-count epoch
//    moves). Only the sessions with events at time t are touched; everyone
//    else is advanced implicitly through the paths' virtual-time service
//    integrals. O(log N) per event; a session with nothing in flight runs
//    its sampling ticks in place instead (DESIGN.md §12).
//
// Identity holds because sessions derive all state from anchored values
// that only change at their own events (sim/session.h), so barrier visits
// at foreign event times are numerically invisible. Single-threaded and
// deterministic; replications fan out across worker threads.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/cdn_fleet.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "manifest/view.h"
#include "media/content.h"
#include "net/bandwidth_trace.h"
#include "net/topology.h"
#include "sim/session.h"

namespace demuxabr::fleet {

class FleetScheduler {
 public:
  /// All clients stream `content` (which must outlive run()) through `view`
  /// over `config.topology`, each on its assigned paths. Unset, the fleet
  /// is TopologySpec::single(bottleneck): one link named "bottleneck" that
  /// carries every client's audio and video. Otherwise `bottleneck` is
  /// unused; put audio on its own link with a two-link spec and an
  /// audio_assignment (the §4.1 different-servers scenario at fleet
  /// scale). Throws std::invalid_argument on a spec validate() rejects.
  FleetScheduler(const Content& content, ManifestView view,
                 BandwidthTrace bottleneck, FleetConfig config);

  /// Run the whole population to completion (or churn/cap). Call once.
  /// Throws std::invalid_argument on a config plan_population rejects.
  FleetResult run();

  // --- Two-phase API for the shard runner (fleet/shard.h). ---

  /// Run the engine over pre-built plans (arrival-sorted, ids dense in
  /// [0, plans.size()) — the shard runner renumbers) WITHOUT closing the
  /// link books. `client_ids` (FleetShard::client_ids, read during the
  /// call) maps those ids to the fleet-wide ids trace tracks and engine
  /// pops carry; null = the plan ids are fleet-wide. Call once; follow with
  /// close_links().
  FleetResult run_engine(const std::vector<ClientPlan>& plans,
                         const std::vector<int>* client_ids = nullptr);

  /// Advance every link/path integral to `end_time` (idle tails included)
  /// and write the closing stats into `result`. The shard runner passes the
  /// *global* max end time so per-link stats match the whole-topology
  /// serial run byte for byte; run() passes the run's own end time.
  void close_links(FleetResult& result, double end_time);

 private:
  struct Client {
    ClientPlan plan;
    std::unique_ptr<PlayerAdapter> player;
    std::unique_ptr<StreamingSession> session;
    int video_path = 0;  ///< topology path indices (see ClientResult)
    int audio_path = 0;
  };

  /// Build and start client `plan`'s session; returns the slot (owned by
  /// slots_, indexed by client id).
  Client& admit(const ClientPlan& plan);
  /// Collect the client's result and release its session/player. Reads the
  /// session's own clock, which can run ahead of the event-heap engine's.
  void finalize_client(Client& client);

  /// Fleet-wide id of client `id` (its trace track).
  [[nodiscard]] int global_id(std::uint32_t id) const {
    return client_ids_ != nullptr ? (*client_ids_)[id] : static_cast<int>(id);
  }

  double run_barrier(const std::vector<ClientPlan>& plans);
  double run_event_heap(const std::vector<ClientPlan>& plans);

  const Content& content_;
  ManifestView view_;
  FleetConfig config_;
  /// Owns every channel the sessions hold raw pointers into; declared
  /// before slots_ so the sessions are destroyed first.
  Topology topology_;
  /// Cache-aware runs only: the origin catalog (possibly shared read-only
  /// across shards) and this run's cache plane / flow router.
  std::shared_ptr<const ObjectCatalog> catalog_;
  std::unique_ptr<CdnState> cdn_;
  /// Time-binned telemetry accumulator (obs/telemetry.h), built only when
  /// config_.telemetry.enabled. Declared before slots_ so the sessions that
  /// hold raw pointers into it are destroyed first.
  std::unique_ptr<obs::TimelineShard> telemetry_;
  std::vector<std::unique_ptr<Client>> slots_;  ///< by client id
  FleetResult result_;
  bool streaming_ = false;  ///< streaming-metrics mode active for this run
  const std::vector<int>* client_ids_ = nullptr;  ///< run_engine's id map
};

/// Convenience one-call runner over `config.topology`, or over
/// TopologySpec::single(bottleneck) when it is unset. When `config.threads`
/// != 1 and the topology splits into multiple connected components,
/// dispatches to the parallel shard runner (fleet/shard.h) — results are
/// byte-identical either way. Throws std::invalid_argument on a spec
/// validate() rejects or a config plan_population rejects.
FleetResult run_fleet(const Content& content, const ManifestView& view,
                      const BandwidthTrace& bottleneck, const FleetConfig& config);

// --- Independent replications (seed sweep) on worker threads. ---

struct ReplicationOptions {
  int replications = 1;
  /// 0 = hardware_threads(); 1 = serial on the calling
  /// thread. Any thread count yields identical per-replication results.
  int threads = 0;
};

struct FleetReplication {
  std::uint64_t seed = 0;
  FleetResult result;
  FleetMetrics metrics;
};

/// Run `options.replications` independent fleets (same config; replication
/// r runs with seed config.seed + r), fanned out by fan_out_ordered.
/// Results come back in replication order and are byte-identical for every
/// thread count. A traced config (`config.session.tracer`) traces each
/// replication into a Tracer of its own and appends them in replication
/// order, so the trace is too.
std::vector<FleetReplication> run_replications(const Content& content,
                                               const ManifestView& view,
                                               const BandwidthTrace& bottleneck,
                                               const FleetConfig& config,
                                               const ReplicationOptions& options);

}  // namespace demuxabr::fleet
