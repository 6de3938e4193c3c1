// The processor-sharing network every session streams through: named
// bottleneck links over bandwidth traces, the paths (Channels) flows ride
// across them, and the Network that hands a session one carrier per media
// type. Audio and video either share one bottleneck (§3.3) or ride
// separate servers (§1, §4.1); fleets add client → edge → core paths over
// a DAG of links.
//
// Each flow traverses a *path* of links and its instantaneous rate is the
// minimum over the per-link processor-sharing fair shares
//
//     rate_P(t) = min over links l in P of  capacity_l(t) / max(1, N_l(t))
//
// where N_l counts flows on *every* path through l. The hop attaining the
// minimum is the path's binding constraint; it can move when any sibling
// path's population changes. Service is accounted in *virtual time*
// (fair-queuing style): each path keeps the per-flow integral
//
//     V_P(t) = integral over [0, t] of rate_P(u) du   [kbit]
//
// advanced lazily at population changes of the *affected set* (the paths
// whose rate can change: those sharing a link with the mutating path). A
// flow that joined when V_P read v_start has received exactly
// V_P(t) - v_start kbit by time t, however many other flows came and went,
// so a session accounts its bytes at its own events as an integral
// difference. Because V_P only mutates at population changes, every derived
// quantity (delivered bytes, predicted completions, utilization integrals)
// is a pure function of that state: the fleet engines stay bit-identical
// and the event-heap engine O(log N + affected-topology-size) per event.
// Completion targets are values of V_P — invariant under population and
// capacity changes — keyed per path; a binding-constraint move re-keys them
// lazily through the path's epoch bump (fleet/event_heap.h).
//
// Hot-path layout (DESIGN.md §12): every per-path hop list, per-link rider
// set, and affected set is flattened at construction into contiguous
// CSR-style uint32 index arrays, so the advancement walks touch dense spans
// instead of chasing vector-of-vector indirections; the Channels
// themselves live in one contiguous vector. Iteration order and arithmetic
// are unchanged expression-for-expression, so results stay byte-identical
// to the nested layout.
//
// Every session rides a topology: Network::shared is one link,
// Network::split two, and FleetScheduler builds TopologySpec::single() when
// FleetConfig::topology is unset. On a 1-hop path the min-share walk reduces
// to V(t) = ∫ cap/max(1,N) expression-for-expression; the plain single-link
// oracle in tests/link_oracle.h pins it bit for bit.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/bandwidth_trace.h"
#include "util/arena.h"
#include "util/indexed_min_heap.h"

namespace demuxabr::obs {
class TimelineShard;  // obs/telemetry.h
class Tracer;         // obs/trace.h
}

namespace demuxabr {

/// Accumulated utilization of one topology link over a run. Advanced
/// lazily at flow-population changes — the same partition both fleet
/// engines produce, so the stats are engine-independent.
struct LinkStats {
  std::string name;
  double observed_s = 0.0;      ///< total wall time observed
  double busy_s = 0.0;          ///< time with >= 1 active flow
  double flow_seconds = 0.0;    ///< integral of active_flows over time
  double offered_kbit = 0.0;    ///< integral of capacity (what the pipe could carry)
  double delivered_kbit = 0.0;  ///< integral of the traversing paths' rates while busy
  int peak_flows = 0;           ///< max concurrent flows across all sessions
  /// Flows still registered when stats were taken. Zero after a clean fleet
  /// run — anything else means a session leaked a processor-sharing slot.
  int residual_flows = 0;
  /// Total time [s] this link was some traversing path's binding
  /// constraint (bottleneck attribution). Excluded from fingerprints.
  double binding_s = 0.0;

  /// Fraction of offered capacity actually used (a link only 1-hop paths
  /// traverse saturates while busy, so delivered == offered there).
  [[nodiscard]] double utilization() const {
    return offered_kbit > 0.0 ? delivered_kbit / offered_kbit : 0.0;
  }
  [[nodiscard]] double busy_fraction() const {
    return observed_s > 0.0 ? busy_s / observed_s : 0.0;
  }
  [[nodiscard]] double avg_flows() const {
    return observed_s > 0.0 ? flow_seconds / observed_s : 0.0;
  }
};

/// A CDN cache co-located with a topology link (fleet/cdn_fleet.h): the
/// tier capacities of the node's CdnChain (httpsim/cdn_chain.h). A request
/// whose object is resident in the edge tier rides only the hop prefix of
/// its path up to this link; misses ride the full path to the origin and
/// fill the cache at flow completion.
struct CacheSpec {
  /// Edge LRU capacity in bytes; 0 = unbounded. validate() rejects a
  /// negative capacity.
  std::int64_t capacity_bytes = 0;
  /// Optional regional tier close to the origin: hits save origin egress
  /// but still ride the full path. Negative = no regional tier; 0 =
  /// unbounded regional.
  std::int64_t regional_capacity_bytes = -1;
};

/// One named bottleneck of the topology.
struct LinkSpec {
  std::string name;
  BandwidthTrace trace;
  /// Observability trace track; 0 = auto (obs::kLinkTrackBase + link
  /// index). The shard runner pins sub-topology links to their *global*
  /// track ids so traces stay attributable after partitioning.
  std::uint32_t trace_track = 0;
  /// CDN cache at this link. At most one hop of any path may carry a cache
  /// (validate() enforces it). Copied wholesale by the shard runner, so a
  /// cache and every path through it stay inside one connected component.
  std::optional<CacheSpec> cache;
};

/// One route through the topology: an ordered list of link indices
/// (client-side first, core last — order only matters for reporting).
struct PathSpec {
  std::string name;
  std::vector<std::size_t> hops;
};

/// Declarative topology + client→path assignment. Build with the add_*
/// helpers (they return indices) or one of the canned constructors, then
/// hand to FleetConfig::topology.
struct TopologySpec {
  std::vector<LinkSpec> links;
  std::vector<PathSpec> paths;

  /// Video path per client: client `id` rides
  /// `video_assignment[id % video_assignment.size()]`. Empty = round-robin
  /// over all paths (`id % paths.size()`).
  std::vector<std::size_t> video_assignment;
  /// Audio path per client, same indexing. Empty = audio rides the
  /// client's video path (the common shared-route case).
  std::vector<std::size_t> audio_assignment;

  std::size_t add_link(std::string name, BandwidthTrace trace);
  std::size_t add_path(std::string name, std::vector<std::size_t> hops);

  /// Degenerate 1-link / 1-path topology: what Network::shared builds, and
  /// what FleetScheduler builds from its bottleneck trace when
  /// FleetConfig::topology is unset.
  static TopologySpec single(BandwidthTrace trace, std::string name = "bottleneck");

  /// Client → edge → core shards: `edge_count` regions, each with its own
  /// access + edge link, all funnelling into one core uplink. Path i =
  /// [access-i, edge-i, core]; clients round-robin unless an assignment
  /// is set (see block_assignment).
  static TopologySpec sharded(int edge_count, const BandwidthTrace& access,
                              const BandwidthTrace& edge, const BandwidthTrace& core);

  /// Assignment vector placing `clients_per_path` consecutive client ids on
  /// each path: [0,0,...,1,1,...]. Combine with sharded() for a
  /// clients-per-edge layout.
  static std::vector<std::size_t> block_assignment(std::size_t path_count,
                                                   std::size_t clients_per_path);

  /// Empty string when well-formed; otherwise a description of the first
  /// problem (no links, empty/out-of-range/duplicate hops, bad assignment,
  /// a negative edge cache capacity, a path traversing more than one
  /// cached link).
  [[nodiscard]] std::string validate() const;
};

/// Per-path closing stats (fleet reporting + invariant tests).
struct PathSummary {
  std::string name;
  std::vector<std::string> hop_names;
  /// Per-hop time [s] this hop was the path's binding constraint while the
  /// path was busy (ties go to the earliest hop). Sums to the path's busy
  /// time — the bottleneck-attribution table of EXPERIMENTS.md.
  std::vector<double> binding_s;
  int peak_flows = 0;
  int residual_flows = 0;  ///< flows still registered at finalize (0 = clean)
  double service_kbit = 0.0;  ///< final per-flow virtual service V_P
};

class Topology;

/// The carrier of a session's flows: one route of links through a
/// Topology. A flow joins and leaves (the processor-sharing population),
/// reads the per-flow service integral V(t), asks when V reaches a target,
/// and files that target in a completion registry the fleet event engine
/// queries per carrier instead of per flow. State mutates only at
/// flow-population changes of the affected set, so everything a session
/// derives from a Channel is a pure function of state that is identical in
/// both fleet engines (DESIGN.md §7). Hop lists and per-hop binding-time
/// accumulators live in the owning Topology's CSR arrays; the channel
/// itself carries only scalar hot state.
class Channel final {
 public:
  /// Register one flow at time `now` (>= every earlier mutation time).
  /// Returns the service integral at `now` — the joining flow's v_start.
  double add_flow(double now);

  /// Unregister one flow at time `now`. Removing from an idle channel is a
  /// flow-accounting bug in the caller (a double remove): it asserts in
  /// debug builds, and in release logs an error, clamps at zero and counts
  /// it in Topology::double_removes().
  void remove_flow(double now);

  [[nodiscard]] int active_flows() const { return active_flows_; }
  /// Highest concurrent flow count ever observed on this channel.
  [[nodiscard]] int peak_flows() const { return peak_flows_; }

  /// Bumped on every population change of the affected set; the fleet event
  /// engine uses it to detect that completion predictions keyed on this
  /// channel went stale.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Time up to which V is advanced: the last population change of the
  /// affected set, or the last finalize.
  [[nodiscard]] double clock_s() const { return clock_s_; }

  /// Per-flow cumulative service [kbit] at `t` >= clock_s(). Pure: walks
  /// capacity segments from the stored integral without mutating it, so
  /// repeated reads at any t give identical values.
  [[nodiscard]] double service_at(double t) const;

  /// Earliest time at which the service integral reaches `v_target`,
  /// assuming the current flow population persists (any population change
  /// re-predicts). Returns clock_s() when the target has already been
  /// served; +infinity when capacity never delivers it.
  [[nodiscard]] double time_when_service_reaches(double v_target) const;

  // --- Completion registry (virtual-service targets). ---
  //
  // Targets are invariant under population and capacity changes — only
  // their wall-clock translation moves — so a fleet engine asks one O(1)
  // question per channel ("who finishes first, and when?") instead of
  // re-deriving a prediction per flow per event.

  /// Register/refresh the completion target of flow `token` (caller-chosen
  /// dense id, unique per in-flight flow on this channel).
  void register_completion(std::uint32_t token, double v_target_kbit) {
    completions_.update(token, v_target_kbit);
  }
  void unregister_completion(std::uint32_t token) { completions_.erase(token); }
  [[nodiscard]] bool has_completions() const { return !completions_.empty(); }
  /// Token of the earliest finisher (smallest target, then smallest token).
  /// Only valid when has_completions().
  [[nodiscard]] std::uint32_t earliest_completion_token() const {
    return completions_.top().id;
  }
  /// Wall-clock time of the earliest registered completion; +infinity when
  /// none are registered.
  [[nodiscard]] double earliest_completion_time() const {
    if (completions_.empty()) return std::numeric_limits<double>::infinity();
    return time_when_service_reaches(completions_.top().key);
  }

  [[nodiscard]] const std::string& name() const { return name_; }

  Channel(Channel&&) = default;
  Channel& operator=(Channel&&) = default;

 private:
  friend class Topology;
  Channel() = default;

  Topology* topo_ = nullptr;
  std::uint32_t index_ = 0;

  int active_flows_ = 0;
  int peak_flows_ = 0;
  std::uint64_t epoch_ = 0;

  double clock_s_ = 0.0;       ///< time up to which V_P is advanced
  double service_kbit_ = 0.0;  ///< V_P(clock_s_): per-flow min-share integral

  std::string name_;
  /// v_target [kbit] per in-flight flow token; backed by the owning
  /// Topology's arena when one was supplied.
  BasicIndexedMinHeap<ArenaAllocator<HeapEntry>> completions_;
};

/// Cache-routing handle of one spec path (fleet/cdn_fleet.h): the cached
/// hop's link index plus the Channel a cache hit rides — the derived
/// "<path>:hit" channel over the hop prefix ending at the cached link, or
/// the path's own channel when the cached link is its last hop.
struct PathCacheRoute {
  std::size_t link = 0;
  Channel* hit_channel = nullptr;
};

/// Runtime topology: owns the link nodes and path channels, performs the
/// affected-set lazy advancement, and closes the per-link books
/// (LinkStats) at the end of a run. Built once per fleet run (or per solo
/// Network); paths are handed to sessions as non-owning Channel pointers,
/// so the Topology must outlive every session riding it (FleetScheduler
/// and Network guarantee it).
class Topology {
 public:
  /// Throws std::invalid_argument carrying validate()'s message when `spec`
  /// is malformed. `arena` (optional, must outlive the topology) backs
  /// every channel's completion registry — FleetScheduler passes its
  /// per-shard arena so drain-loop registry growth never hits the heap.
  explicit Topology(TopologySpec spec, MonotonicArena* arena = nullptr);

  // Channels point back at their topology and sessions hold raw pointers
  // into it, so it is neither copied nor moved.
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  /// Spec paths only — the routes clients are assigned to. Derived hit
  /// channels (cache-aware routing) live above this index; see
  /// channel_count().
  [[nodiscard]] std::size_t path_count() const { return spec_path_count_; }
  /// All channels: spec paths first, then the derived "<path>:hit" prefix
  /// channels cache hits ride. The event-heap engine watches completions on
  /// every channel, so it enumerates up to this count.
  [[nodiscard]] std::size_t channel_count() const { return paths_.size(); }
  [[nodiscard]] const std::string& link_name(std::size_t l) const {
    return links_[l].name;
  }

  /// Channel `p`, valid for the Topology's lifetime. Wire into a session's
  /// Network. Valid for any index below channel_count(); sessions' default
  /// carriers use spec-path indices.
  [[nodiscard]] Channel& path_channel(std::size_t p) { return paths_[p]; }

  /// True when any link carries a CacheSpec.
  [[nodiscard]] bool has_caches() const { return has_caches_; }
  /// Cache route of spec path `p` (empty when no hop is cached).
  [[nodiscard]] const std::optional<PathCacheRoute>& cache_route(std::size_t p) const {
    return cache_routes_[p];
  }

  [[nodiscard]] std::size_t video_path_for(int client_id) const;
  [[nodiscard]] std::size_t audio_path_for(int client_id) const;
  /// True when any client's audio rides a different path than its video.
  [[nodiscard]] bool split_audio() const { return !audio_assignment_.empty(); }

  /// Advance every path's and link's integrals to `t` (idle tails
  /// included). Call once at the end of a run, before stats.
  void finalize(double t);

  /// Per-link closing stats, link-declaration order. binding_s aggregates
  /// the binding-constraint time of every path this link bottlenecked.
  [[nodiscard]] std::vector<LinkStats> link_stats() const;
  /// Spec paths only (derived hit channels report through link_stats and
  /// the fleet's CdnStats).
  [[nodiscard]] std::vector<PathSummary> path_stats() const;
  /// Double removes clamped so far (a flow removed from an idle path:
  /// asserts in debug builds, logs an error and clamps at zero in
  /// release). Anything but 0 is an engine bug.
  [[nodiscard]] std::uint64_t double_removes() const { return double_removes_; }

  /// Wire the run's tracer (obs/trace.h): every population change then
  /// emits each touched link's active_flows counter. Null (default) costs
  /// one branch per touched link.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// Name one track per link on the wired tracer ("link <name>").
  void name_trace_tracks() const;

  // --- Engine dirty-channel tracking (fleet/scheduler.cpp). ---
  //
  // Every population change bumps the epoch of each affected channel and
  // records its index here (deduplicated) — so the event-heap engine can
  // re-sync exactly the channels whose completion keys may have moved,
  // instead of sweeping every channel after every event.

  /// Channels whose epochs moved since the last clear_dirty(), in
  /// first-dirtied order. Order is irrelevant to consumers: syncing writes
  /// absolute keys, so any re-sync order yields the same heap state.
  [[nodiscard]] const std::vector<std::uint32_t>& dirty_channels() const {
    return dirty_channels_;
  }
  void clear_dirty() {
    for (const std::uint32_t p : dirty_channels_) channel_dirty_[p] = 0;
    dirty_channels_.clear();
  }

  // --- Invariant-test hooks (tests/test_fleet_topology.cpp). ---

  /// Per-link virtual service V_l = ∫ cap_l / N_l while busy. Any path
  /// through l satisfies ΔV_P <= ΔV_l over every interval, hence
  /// V_P(end) <= V_l(end) — the min-share invariant.
  [[nodiscard]] double link_service_kbit(std::size_t l) const {
    return links_[l].service_kbit;
  }
  [[nodiscard]] double path_service_kbit(std::size_t p) const {
    return paths_[p].service_kbit_;
  }
  /// Current min-share rate of path `p` at `t` >= the last mutation time.
  [[nodiscard]] double path_rate_at(std::size_t p, double t) const;
  /// Current fair share of link `l` at `t` (capacity when idle).
  [[nodiscard]] double link_fair_share_at(std::size_t l, double t) const;
  [[nodiscard]] int link_active_flows(std::size_t l) const {
    return links_[l].active_flows;
  }

  /// Wire the time-binned telemetry sink (obs/telemetry.h): every lazily
  /// advanced link-accounting segment is also reported as that link's
  /// series, indexed by spec link order. Null (default) costs one branch
  /// per segment.
  void set_telemetry(obs::TimelineShard* telemetry) { telemetry_ = telemetry; }

 private:
  friend class Channel;

  struct LinkNode {
    std::string name;
    BandwidthTrace trace;
    int active_flows = 0;
    int peak_flows = 0;
    std::uint32_t trace_track = 0;

    double clock_s = 0.0;
    double service_kbit = 0.0;  ///< V_l: per-flow fair-share integral of this link
    double busy_s = 0.0;
    double flow_seconds = 0.0;
    double offered_kbit = 0.0;
    double delivered_kbit = 0.0;

    /// Every traversing path is 1-hop: this link alone bottlenecks them,
    /// so delivered == offered while busy (the single-link accounting
    /// tests/link_oracle.h pins bit for bit).
    bool saturating = false;
  };

  /// The one mutation point: path `p` gains (+1) or loses (-1) a flow at
  /// `now`. Advances every affected path's V and every affected link's
  /// books to `now` with the OLD populations, then mutates counts and
  /// bumps every affected path's epoch — preserving the invariant that a
  /// path's clock moves iff its epoch does, which is what keeps cached
  /// event-heap keys exact (never stale by a partitioning difference).
  void population_change(std::size_t p, int delta, double now);

  void advance_path(std::size_t p, double now);
  void advance_link(std::size_t l, double now);

  // CSR span accessors (index arrays built once at construction).
  [[nodiscard]] const std::uint32_t* hops_of(std::size_t p) const {
    return hop_csr_.data() + hop_offsets_[p];
  }
  [[nodiscard]] std::size_t hop_count_of(std::size_t p) const {
    return hop_offsets_[p + 1] - hop_offsets_[p];
  }

  std::vector<std::size_t> video_assignment_;
  std::vector<std::size_t> audio_assignment_;
  obs::TimelineShard* telemetry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t double_removes_ = 0;
  std::vector<LinkNode> links_;
  /// Spec paths [0, spec_path_count_), then derived hit channels. Sized
  /// once at construction (sessions hold raw Channel pointers into it).
  std::vector<Channel> paths_;
  std::size_t spec_path_count_ = 0;
  bool has_caches_ = false;
  /// Per spec path: its cached hop + hit channel, if any.
  std::vector<std::optional<PathCacheRoute>> cache_routes_;

  // --- Flat CSR index arrays (DESIGN.md §12). All spans are stored in the
  // same order the nested vectors historically held, so every walk visits
  // entities in the identical sequence. ---

  /// Channel p's hop link indices: hop_csr_[hop_offsets_[p] ..
  /// hop_offsets_[p+1]).
  std::vector<std::uint32_t> hop_csr_;
  std::vector<std::uint32_t> hop_offsets_;
  /// Per (channel, hop) binding-constraint time, same offsets as hop_csr_.
  std::vector<double> binding_csr_;
  /// Link l's traversing channels: link_paths_csr_[link_paths_offsets_[l]..).
  std::vector<std::uint32_t> link_paths_csr_;
  std::vector<std::uint32_t> link_paths_offsets_;
  /// Link l's related links (hops of its traversing channels, incl. self,
  /// sorted): rel_csr_[rel_offsets_[l]..).
  std::vector<std::uint32_t> rel_csr_;
  std::vector<std::uint32_t> rel_offsets_;
  /// Channel p's affected channels (sorted): aff_paths_csr_[...p].
  std::vector<std::uint32_t> aff_paths_csr_;
  std::vector<std::uint32_t> aff_paths_offsets_;
  /// Channel p's affected links (sorted): aff_links_csr_[...p].
  std::vector<std::uint32_t> aff_links_csr_;
  std::vector<std::uint32_t> aff_links_offsets_;

  /// Dirty-channel accumulator: indices appended at epoch bump, flag array
  /// dedupes.
  std::vector<std::uint32_t> dirty_channels_;
  std::vector<std::uint8_t> channel_dirty_;
};

/// Optional cache-aware request router (sim/flow_router.h).
class FlowRouter;

/// The network between client and server(s): one carrier per media type.
/// `shared` builds a one-link topology and points both media types at its
/// path, so concurrent audio+video downloads contend (the root of Shaka's
/// mis-estimation, §3.3). `split` builds two one-link paths, one per media
/// type (§1/§4.1: tracks stored at different servers). Copies share the
/// topology those two build. A fleet instead wires each member at the
/// channels of its scheduler's topology, so every client's flows contend on
/// the same links.
///
/// A carrier keeps its clock and flow state after a session ends, so one
/// Network carries one session: StreamingSession throws
/// std::invalid_argument when a carrier's clock is already past the
/// session's start time. Build a fresh Network for every run.
struct Network {
  Channel* video_link = nullptr;
  Channel* audio_link = nullptr;
  /// Per-request startup latency (connection + request RTT).
  double rtt_s = 0.05;
  /// Optional cache-aware request router (sim/flow_router.h). Consulted at
  /// flow registration; may redirect a request onto a shorter carrier (an
  /// edge-cache hit path). Non-owning — the fleet scheduler outlives every
  /// session it wires. Null = every flow rides its default link.
  FlowRouter* router = nullptr;

  static Network shared(BandwidthTrace trace, double rtt_s = 0.05);
  static Network split(BandwidthTrace video_trace, BandwidthTrace audio_trace,
                       double rtt_s = 0.05);

  /// Trace and name the links of the topology shared() or split() built;
  /// no-op when the carriers belong to someone else's topology (a fleet
  /// wires its own).
  void set_tracer(obs::Tracer* tracer);

  [[nodiscard]] bool is_shared() const { return video_link == audio_link; }
  [[nodiscard]] Channel& link_for(bool is_video) const {
    return is_video ? *video_link : *audio_link;
  }

 private:
  /// Owner of the carriers shared() and split() build; null when the
  /// carriers belong to someone else's topology.
  std::shared_ptr<Topology> topology_;
};

}  // namespace demuxabr
