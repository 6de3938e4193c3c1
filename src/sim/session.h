// StreamingSession: the discrete-event client/network simulation.
//
// Owns the playback clock, the per-type prefetch buffers, and the download
// flows over the Network. Polls the PlayerAdapter for decisions, feeds it
// progress/completion events, and records a SessionLog. Deterministic:
// identical inputs yield identical logs.
//
// Model summary (DESIGN.md §4):
//  * at most one in-flight download per media type; the player's
//    max_concurrent_downloads() caps overall parallelism (1 = serial A/V,
//    2 = concurrent pipelines);
//  * each request pays an RTT before data flows; active flows on a link
//    share its capacity equally — accounted through the carrier's
//    fair-share service integral (a Channel, net/topology.h), so delivered
//    bytes are an integral difference rather than a per-interval
//    accumulation;
//  * per-delta (default 0.125 s) progress samples are emitted per flow —
//    the granularity Shaka's estimator filters on (§3.3);
//  * playback consumes audio and video in lockstep; a stall starts when
//    either buffer underruns and ends when both recover past the resume
//    threshold (§3.4).
//
// Determinism contract (DESIGN.md §7 "Engine modes"): every quantity the
// session derives — bytes delivered, buffer levels, playhead, event
// deadlines — is computed from *anchored* state that only changes at the
// session's own events (plus link state, which only changes when a flow
// joins or leaves). Advancing the session through extra intermediate times
// (as the barrier fleet engine does at every global step) is numerically
// invisible: integrate_to() assigns values, it never accumulates per-step
// deltas. That is what lets the O(log N) event-heap fleet engine, which
// touches a session only at its own events, reproduce the barrier engine's
// logs bit for bit.
#pragma once

#include <cstdint>
#include <limits>

#include "manifest/view.h"
#include "media/content.h"
#include "net/topology.h"
#include "obs/telemetry.h"
#include "sim/buffer.h"
#include "sim/metrics.h"
#include "sim/player.h"
#include "util/arena.h"

namespace demuxabr {

/// A scripted user seek: at wall-clock `at_time_s`, jump the playhead to
/// content position `to_position_s` (snapped to a chunk boundary).
struct SeekEvent {
  double at_time_s = 0.0;
  double to_position_s = 0.0;
};

struct SessionConfig {
  /// Playback starts once both buffers reach this level (or the content is
  /// fully downloaded). Default matches ExoPlayer's bufferForPlayback.
  double startup_buffer_s = 2.5;
  /// After a stall, playback resumes once both buffers recover to this
  /// (ExoPlayer's bufferForPlaybackAfterRebuffer).
  double resume_buffer_s = 5.0;
  /// Progress-sampling interval (Shaka's delta). Must be finite and > 0:
  /// the session constructor throws std::invalid_argument otherwise.
  double delta_s = 0.125;
  /// Hard wall on simulated time. Reaching it is itself an event: the
  /// session aborts in-flight downloads (releasing shared-link slots),
  /// closes an open stall and finishes exactly at the cap.
  double max_sim_time_s = 7200.0;
  /// Wall-clock time at which the session clock begins. Fleet scheduling
  /// sets this to the client's arrival time so every session shares the
  /// global clock (link traces are evaluated at absolute time). All logged
  /// times are then absolute; startup_delay_s stays relative to this.
  double start_time_s = 0.0;
  /// Record buffer/estimate/selection time series in the log. Solo
  /// sessions only: fleet schedulers turn it off for every session.
  bool record_series = true;
  /// Minimal-log mode (streaming fleets, DESIGN.md §10): suppress the
  /// per-download/stall/selection vectors entirely — the log carries only
  /// SessionTotals, its seek records and scalars, so memory per session is
  /// O(1) instead of O(chunks). The totals are folded identically in both
  /// modes, seeks included; only compute_qoe's two per-slot terms
  /// (combo_switches, off_manifest_chunks) need the vectors.
  bool minimal_log = false;
  /// Base id for this session's flow tokens on shared links (audio flow =
  /// base, video flow = base + 1). Tokens must be unique per link; a fleet
  /// scheduler assigns 2*client_id. Irrelevant for solo sessions.
  std::uint32_t flow_token_base = 0;
  /// Observability track id for this session's trace events. A fleet
  /// scheduler assigns the fleet-wide client id; solo sessions keep track 0.
  std::uint32_t trace_track = 0;
  /// The run's event trace (obs/trace.h), owned by the caller and alive
  /// for the run; null (the default) means untraced, and each trace site
  /// then costs one null-pointer branch. A solo session also wires it into
  /// the links of its own Network. A fleet reads it from
  /// FleetConfig::session and wires it into its topology, engine and
  /// sessions; the shard runner and run_replications give each shard or
  /// replication a Tracer of its own and append those in order after the
  /// join, so no Tracer ever has two writers.
  obs::Tracer* tracer = nullptr;
  /// Scripted seeks, ascending by at_time_s. A seek cancels in-flight
  /// downloads, flushes both buffers and rebuffers at the target position
  /// (counted as a stall while playback is paused). Both log modes record
  /// them; see compute_qoe for how they count.
  std::vector<SeekEvent> seeks;
  /// Optional arena (must outlive the session) backing the pending-delivery
  /// queue: fleet schedulers pass their per-shard arena so queue growth in
  /// the drain loop never calls malloc. Null (solo sessions) = heap.
  MonotonicArena* arena = nullptr;
  /// Time-binned fleet telemetry sink (obs/telemetry.h), owned by the fleet
  /// scheduler; the session reports buffer samples and completed video
  /// chunks into it. Null (the default) costs one predictable branch per
  /// hook site — the zero-overhead-when-disabled contract.
  obs::TimelineShard* telemetry = nullptr;
};

class StreamingSession {
 public:
  /// `content` is server-side truth (chunk sizes); `view` is what the player
  /// sees. The session keeps references; all must outlive run(). Throws
  /// std::invalid_argument when config.delta_s is not finite and positive
  /// (the sampling clock would never advance), or when either default
  /// carrier's clock is already past config.start_time_s: a Network that
  /// carried another session.
  StreamingSession(const Content& content, ManifestView view, Network network,
                   PlayerAdapter& player, SessionConfig config = {});

  /// Run to completion (or the sim-time cap) and return the log.
  /// Implemented as a loop over the stepping API below. A traced run names
  /// config.trace_track "session <player name>".
  SessionLog run();

  // --- Incremental stepping API (DESIGN.md "Fleet simulation") ---
  //
  // A barrier fleet engine interleaves N sessions on shared links by
  // driving each through the same phases the solo loop runs:
  //
  //   start();
  //   while (!done()) {
  //     begin_step();                     // all sessions first: link counts
  //     t = next_event_time();            // then horizons (rates now global)
  //     integrate_to(min over sessions);  // all sessions: flows + playback
  //     process_events();                 // all sessions: completions, ticks
  //   }
  //   log = finish();
  //
  // The event-heap engine instead advances a session only at its own event
  // times, in the order integrate_to(t); process_events(); begin_step() —
  // equivalent to the barrier sequence because begin_step() at the top of a
  // barrier iteration acts at the *previous* barrier's time. process_events
  // fires only when one of the session's own events is due, so a session
  // cannot observe whether it was also advanced at foreign barrier times.
  // After begin_step() it calls run_idle_ticks(), which fires the session's
  // sampling ticks in place for as long as nothing is in flight, so idle
  // ticks need no heap round-trip.

  /// One-time setup: starts the player, takes the first series sample and
  /// offers the first download slots. Call before any stepping.
  void start();

  /// True once the playhead reached content end, the sim-time cap was hit,
  /// or the session was abandoned via abort_session().
  [[nodiscard]] bool done() const;

  /// Register flows whose request RTT has elapsed on their links (recording
  /// their fair-share service offsets and completion targets). Must run for
  /// every session sharing a link before any next_event_time() call so
  /// horizons see the true flow counts.
  void begin_step();

  /// Earliest time > now() at which this session's state changes character:
  /// sampling tick, RTT expiry, flow completion, buffer underrun, content
  /// end, scripted seek or the sim-time cap. Pure. Every candidate is an
  /// anchored absolute time, so repeated calls between events return the
  /// same float in any engine.
  [[nodiscard]] double next_event_time() const;

  /// next_event_time() without the link-dependent completion candidates:
  /// the event-heap engine keys sessions on this and lets each shared link
  /// announce its own earliest completion (Channel::earliest_completion_time),
  /// so no per-session key ever goes stale when a link's population moves.
  [[nodiscard]] double next_local_event_time() const;

  /// Advance flows/buffers/playhead/clock to `t` (<= next_event_time())
  /// without firing events. Pure assignment of anchored values: advancing
  /// in one jump or through any intermediate times is bit-identical.
  void integrate_to(double t);

  /// Fire everything due at the current time: completions, progress samples
  /// and abandonment, series sampling, seeks, playback transitions, player
  /// polling, end-of-content detection, the sim-time cap. No-op when none
  /// of the session's own events are due (foreign barrier times).
  void process_events();

  /// integrate_to + process_events: the solo-session step.
  void advance_to(double t) {
    integrate_to(t);
    process_events();
  }

  /// Fire this session's sampling ticks in place while it is idle: not
  /// done, neither flow active (in flight or waiting out its RTT), no
  /// delivery owed to the router, and the next local event is the next tick,
  /// strictly before `horizon`. Each tick is advance_to(tick), the calls an
  /// engine visit at that tick makes. Stops after the first tick that
  /// issues a request or ends the session. Returns the number of ticks run.
  ///
  /// Safe ahead of a fleet's clock because an idle session reads no shared
  /// state: it rides no channel and reaches the router only in begin_step()
  /// (DESIGN.md §12). The event-heap engine calls it after begin_step() with
  /// the client's planned departure as `horizon`.
  std::uint64_t run_idle_ticks(double horizon);

  /// Abandon the whole session (fleet churn): cancels in-flight downloads
  /// (releasing shared-link slots), closes an open stall, and marks the
  /// session done. The log keeps everything up to this point.
  void abort_session();

  /// Stamp end_time_s and surrender the log. Call once, after done().
  SessionLog finish();

  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] const SessionLog& log() const { return log_; }

 private:
  struct Flow {
    bool active = false;
    DownloadRequest request;
    std::int64_t total_bytes = 0;
    double request_t = 0.0;
    double data_start_t = 0.0;  ///< request_t + RTT
    double bytes_done = 0.0;    ///< derived from the link service integral
    std::int64_t sampled_bytes = 0;  ///< bytes already reported via samples
    double last_sample_t = 0.0;
    bool on_link = false;
    /// The carrier this flow registered on: the network's default link, or
    /// the router's pick (a cache-hit prefix channel). Valid while on_link.
    Channel* channel = nullptr;
    /// Router ticket from FlowRouter::admit, echoed via delivered() at
    /// completion; 0 = no notification owed.
    std::uint64_t route_ticket = 0;
    std::uint32_t token = 0;        ///< completion-registry id on the link
    double v_start_kbit = 0.0;      ///< link service integral at registration
    double v_target_kbit = 0.0;     ///< service integral at completion
    /// Ladder/chunk lookups resolved once at request time so the completion
    /// path never re-searches the ladder or the chunk map (hot path).
    const TrackInfo* track_info = nullptr;
    const ChunkInfo* chunk_info = nullptr;
    const TrackInfo* audio_track_info = nullptr;  ///< muxed requests only
    const ChunkInfo* audio_chunk_info = nullptr;  ///< muxed requests only
  };

  [[nodiscard]] PlayerContext make_context() const;
  [[nodiscard]] Flow& flow(MediaType type) {
    return type == MediaType::kAudio ? audio_flow_ : video_flow_;
  }
  [[nodiscard]] MediaBuffer& buffer(MediaType type) {
    return type == MediaType::kAudio ? audio_buffer_ : video_buffer_;
  }
  [[nodiscard]] int& next_chunk(MediaType type) {
    return type == MediaType::kAudio ? next_audio_chunk_ : next_video_chunk_;
  }
  [[nodiscard]] int active_flow_count() const {
    return (audio_flow_.active ? 1 : 0) + (video_flow_.active ? 1 : 0);
  }
  [[nodiscard]] Channel& link_of(const Flow& f) const {
    // Routed flows carry their channel; anything else (and pre-registration
    // states) falls back to the media type's default link.
    if (f.channel != nullptr) return *f.channel;
    return network_.link_for(f.request.type == MediaType::kVideo);
  }

  /// Anchored deadline at which `buf` would run dry if playback continues
  /// uninterrupted. Only meaningful while playing.
  [[nodiscard]] double underrun_deadline(const MediaBuffer& buf) const {
    return anchor_t_ + (buf.pushed_s() + playhead_flush_base_ - playhead_anchor_);
  }
  /// Anchored deadline at which the playhead reaches content end.
  [[nodiscard]] double content_end_deadline() const {
    return anchor_t_ + (content_duration_s_ - playhead_anchor_);
  }
  /// Re-anchor the playhead clock at the current (now_, playhead_s_).
  /// Called whenever playback starts, stops or seeks.
  void re_anchor() {
    anchor_t_ = now_;
    playhead_anchor_ = playhead_s_;
  }
  /// Total bytes delivered to this session so far (completed + aborted +
  /// in-flight). Path-independent: banked parts are event-time constants,
  /// in-flight parts come from the link service integral.
  [[nodiscard]] double lifetime_bytes() const {
    return banked_bytes_ + audio_flow_.bytes_done + video_flow_.bytes_done;
  }

  void poll_player();
  void perform_seek(const SeekEvent& seek);
  void start_flow(const DownloadRequest& request);
  void complete_flow(Flow& f);
  /// Cancel an in-flight download (request abandonment).
  void abort_flow(Flow& f);
  /// Hand queued completed downloads to the router (begin_step only).
  void flush_deliveries();
  /// Emit the pending progress sample up to t1; returns it when non-empty.
  std::optional<ProgressSample> emit_progress(Flow& f, double t1);
  void handle_playback_transitions();
  void sample_series();
  [[nodiscard]] bool all_chunks_downloaded() const;

  const Content& content_;
  ManifestView view_;
  Network network_;
  PlayerAdapter& player_;
  SessionConfig config_;

  /// Content-derived constants hoisted out of the event loop (each was a
  /// virtual-free but repeated call on every iteration).
  int total_chunks_ = 0;
  double content_duration_s_ = 0.0;

  double now_ = 0.0;
  double next_tick_ = 0.0;  ///< next progress-sampling boundary
  bool stopped_ = false;    ///< abort_session() called (churn or cap)
  double last_series_sample_t_ = 0.0;
  double banked_bytes_ = 0.0;  ///< bytes of completed/aborted flows
  double lifetime_bytes_at_last_sample_ = 0.0;
  bool started_ = false;
  bool playing_ = false;
  double playhead_s_ = 0.0;
  /// Playhead anchor: playhead_s_ == playhead_anchor_ + (now_ - anchor_t_)
  /// while playing, playhead_anchor_ otherwise. Re-anchored only at
  /// play/pause/seek transitions — the source of path-independent buffer
  /// and deadline math.
  double anchor_t_ = 0.0;
  double playhead_anchor_ = 0.0;
  /// Playhead value when the buffers were last flushed (session start or
  /// seek): cumulative buffer consumption == playhead - this base.
  double playhead_flush_base_ = 0.0;
  double stall_start_t_ = 0.0;

  MediaBuffer audio_buffer_;
  MediaBuffer video_buffer_;
  int next_audio_chunk_ = 0;
  int next_video_chunk_ = 0;
  Flow audio_flow_;
  Flow video_flow_;
  std::size_t next_seek_ = 0;  ///< index into config_.seeks
  /// Per-bin dedup state for config_.telemetry (unused when null).
  obs::TimelineCursor telemetry_cursor_;

  /// Completed downloads owed to the router (cache fills). Queued by
  /// complete_flow, flushed at the next begin_step — deferring the mutation
  /// to the registration phase keeps router state changes in client-id
  /// order per timestamp in both fleet engines (sim/flow_router.h).
  struct PendingDelivery {
    DownloadRequest request;
    std::uint64_t ticket = 0;
  };
  /// At most two entries ever (one in-flight flow per media type between
  /// consecutive begin_steps); arena-backed in fleets, so even its one-off
  /// growth is a pointer bump. Lazily grown: cache-less fleets never queue
  /// a delivery, so the arena pays nothing per churned client there.
  std::vector<PendingDelivery, ArenaAllocator<PendingDelivery>> pending_deliveries_;

  SessionLog log_;
};

/// Convenience one-call runner. `network` carries this one session: its
/// carriers keep their state afterwards, so a second run over the same
/// Network throws std::invalid_argument (see StreamingSession). Build a
/// fresh Network per run.
SessionLog run_session(const Content& content, const ManifestView& view,
                       const Network& network, PlayerAdapter& player,
                       const SessionConfig& config = {});

}  // namespace demuxabr
