#include "sim/session.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"
#include "sim/flow_router.h"

namespace demuxabr {
namespace {
constexpr double kEps = 1e-9;

/// Trace lane for a download flow: concurrent audio+video flows must not
/// share a lane or Chrome's B/E nesting breaks.
std::uint8_t lane_of(MediaType type) {
  return type == MediaType::kVideo ? obs::kLaneVideo : obs::kLaneAudio;
}
}  // namespace

StreamingSession::StreamingSession(const Content& content, ManifestView view,
                                   Network network, PlayerAdapter& player,
                                   SessionConfig config)
    : content_(content),
      view_(std::move(view)),
      network_(std::move(network)),
      player_(player),
      config_(config),
      pending_deliveries_(ArenaAllocator<PendingDelivery>(config.arena)) {
  // Every engine moves on by next_tick_ += delta_s; a tick that never
  // advances would pin the session's event time forever.
  if (!(std::isfinite(config_.delta_s) && config_.delta_s > 0.0)) {
    throw std::invalid_argument("StreamingSession: delta_s must be finite and > 0");
  }
  if (network_.video_link->clock_s() > config_.start_time_s ||
      network_.audio_link->clock_s() > config_.start_time_s) {
    throw std::invalid_argument(
        "StreamingSession: a carrier's clock is past start_time_s (Network reused "
        "after another session?)");
  }
  // The links of a solo session's own Network trace into its tracer; a
  // fleet's carriers belong to the scheduler, which wires them itself.
  network_.set_tracer(config_.tracer);
  // A player must know the timeline before adapting; when the manifest view
  // lacks it (HLS top-level only), model the mandatory fetch of the first
  // media playlist by filling it in here.
  if (view_.total_chunks <= 0 || view_.chunk_duration_s <= 0.0) {
    view_.total_chunks = content_.num_chunks();
    view_.chunk_duration_s = content_.chunk_duration_s();
  }
  total_chunks_ = content_.num_chunks();
  content_duration_s_ = content_.duration_s();
  now_ = config_.start_time_s;
  anchor_t_ = config_.start_time_s;
  last_series_sample_t_ = config_.start_time_s;
  log_.content_duration_s = content_duration_s_;
  log_.chunk_duration_s = content_.chunk_duration_s();
  log_.begin(total_chunks_, config_.minimal_log);
  if (!config_.minimal_log) {
    log_.reserve_for(total_chunks_, content_duration_s_,
                     config_.record_series ? config_.delta_s : 0.0);
  }
}

PlayerContext StreamingSession::make_context() const {
  PlayerContext ctx;
  ctx.now = now_;
  ctx.audio_buffer_s = audio_buffer_.level_s();
  ctx.video_buffer_s = video_buffer_.level_s();
  ctx.next_audio_chunk = next_audio_chunk_;
  ctx.next_video_chunk = next_video_chunk_;
  ctx.total_chunks = total_chunks_;
  ctx.audio_downloading =
      audio_flow_.active || (video_flow_.active && video_flow_.request.muxed);
  ctx.video_downloading = video_flow_.active;
  ctx.playing = playing_;
  ctx.playhead_s = playhead_s_;
  return ctx;
}

bool StreamingSession::all_chunks_downloaded() const {
  return next_audio_chunk_ >= total_chunks_ && next_video_chunk_ >= total_chunks_;
}

void StreamingSession::start_flow(const DownloadRequest& request) {
  Flow& f = flow(request.type);
  assert(!f.active);
  assert(request.chunk_index == next_chunk(request.type));
  assert(request.chunk_index < total_chunks_);
  // Resolve ladder + chunk-map lookups once per request; the progress and
  // completion paths reuse the cached pointers instead of re-searching.
  const TrackInfo* track = content_.ladder().find(request.track_id);
  assert(track != nullptr);
  assert((request.type == MediaType::kAudio) == track->is_audio());
  f.track_info = track;
  f.chunk_info = &content_.chunk(request.track_id, request.chunk_index);
  f.audio_track_info = nullptr;
  f.audio_chunk_info = nullptr;
  if (request.muxed) {
    // Muxed chunks carry both components: positions must be aligned and the
    // audio slot must be free (the muxed flow occupies both).
    assert(request.type == MediaType::kVideo);
    assert(!audio_flow_.active);
    assert(next_audio_chunk_ == next_video_chunk_);
    f.audio_track_info = content_.ladder().find(request.audio_track_id);
    assert(f.audio_track_info != nullptr && f.audio_track_info->is_audio());
    f.audio_chunk_info = &content_.chunk(request.audio_track_id, request.chunk_index);
  }

  f.active = true;
  f.request = request;
  f.total_bytes = f.chunk_info->size_bytes;
  if (request.muxed) {
    f.total_bytes += f.audio_chunk_info->size_bytes;
  }
  f.request_t = now_;
  f.data_start_t = now_ + network_.rtt_s;
  f.bytes_done = 0.0;
  f.sampled_bytes = 0;
  f.last_sample_t = f.data_start_t;
  f.on_link = false;
  f.token =
      config_.flow_token_base + (request.type == MediaType::kVideo ? 1u : 0u);
  f.v_start_kbit = 0.0;
  f.v_target_kbit = 0.0;

  if (config_.record_series) {
    if (request.type == MediaType::kVideo) {
      log_.selected_video_kbps.add(now_, track->avg_kbps);
    } else {
      log_.selected_audio_kbps.add(now_, track->avg_kbps);
    }
    if (request.muxed) {
      log_.selected_audio_kbps.add(now_, f.audio_track_info->avg_kbps);
    }
  }
  DMX_TRACE_SPAN_BEGIN(config_.tracer, obs::kCatDownload, config_.trace_track,
                       lane_of(request.type), "download", now_,
                       obs::TraceArgs()
                           .kv("track_id", request.track_id)
                           .kv("chunk", request.chunk_index)
                           .kv("bytes", f.total_bytes)
                           .kv("muxed", request.muxed ? 1 : 0));
}

std::optional<ProgressSample> StreamingSession::emit_progress(Flow& f, double t1) {
  const auto bytes_now = static_cast<std::int64_t>(f.bytes_done + 0.5);
  const std::int64_t delta_bytes = bytes_now - f.sampled_bytes;
  const double t0 = f.last_sample_t;
  if (t1 <= t0 + kEps) return std::nullopt;
  ProgressSample sample;
  sample.type = f.request.type;
  sample.t0 = t0;
  sample.t1 = t1;
  sample.bytes = delta_bytes;
  player_.on_progress(sample);
  f.sampled_bytes = bytes_now;
  f.last_sample_t = t1;
  return sample;
}

void StreamingSession::abort_flow(Flow& f) {
  assert(f.active);
  if (f.on_link) {
    Channel& link = link_of(f);
    link.remove_flow(now_);
    link.unregister_completion(f.token);
    f.on_link = false;
  }
  // Aborted flows owe the router nothing: the object never fully arrived,
  // so no cache fill happens (the request itself was counted at admit).
  f.channel = nullptr;
  f.route_ticket = 0;
  DownloadRecord record;
  record.type = f.request.type;
  record.track_id = f.request.track_id;
  record.chunk_index = f.request.chunk_index;
  record.bytes = static_cast<std::int64_t>(f.bytes_done + 0.5);
  record.start_t = f.request_t;
  record.end_t = now_;
  log_.record_abandoned(record);
  banked_bytes_ += f.bytes_done;
  f.bytes_done = 0.0;
  f.active = false;
  DMX_TRACE_SPAN_END(config_.tracer, obs::kCatDownload, config_.trace_track,
                     lane_of(record.type), "download", now_,
                     obs::TraceArgs().kv("bytes", record.bytes).kv("aborted", 1));
}

void StreamingSession::complete_flow(Flow& f) {
  // Final (partial-interval) progress sample, then the completion event.
  emit_progress(f, now_);
  if (f.on_link) {
    Channel& link = link_of(f);
    link.remove_flow(now_);
    link.unregister_completion(f.token);
    f.on_link = false;
  }
  // Owe the router its completion notice (a cache fill); deferred to the
  // next begin_step so router mutations stay in client-id order per
  // timestamp across both fleet engines.
  if (network_.router != nullptr) {
    pending_deliveries_.push_back({f.request, f.route_ticket});
  }
  f.channel = nullptr;
  f.route_ticket = 0;
  banked_bytes_ += static_cast<double>(f.total_bytes);
  f.bytes_done = 0.0;

  // One component per record/completion; a muxed flow yields two of each.
  // Fixed-size component array + cached chunk pointers: no allocation and
  // no chunk-map lookups on this per-chunk path.
  struct Component {
    MediaType type;
    const std::string* track_id;
    const ChunkInfo* chunk;
    const TrackInfo* track;
  };
  const int chunk_index = f.request.chunk_index;
  Component components[2] = {
      {f.request.type, &f.request.track_id, f.chunk_info, f.track_info}, {}};
  int component_count = 1;
  if (f.request.muxed) {
    components[component_count++] = {MediaType::kAudio, &f.request.audio_track_id,
                                     f.audio_chunk_info, f.audio_track_info};
  }

  for (int i = 0; i < component_count; ++i) {
    const Component& component = components[i];
    buffer(component.type).push(chunk_index, component.chunk->duration_s);
    next_chunk(component.type) = chunk_index + 1;

    if (component.type == MediaType::kVideo && config_.telemetry != nullptr) {
      config_.telemetry->video_chunk(now_, component.track->avg_kbps);
    }
    log_.record_download(*component.track, chunk_index, component.chunk->size_bytes,
                         f.request_t, now_);
  }

  DMX_TRACE_SPAN_END(config_.tracer, obs::kCatDownload, config_.trace_track,
                     lane_of(f.request.type), "download", now_,
                     obs::TraceArgs()
                         .kv("bytes", f.total_bytes)
                         .kv("dur_s", now_ - f.request_t));
  f.active = false;
  for (int i = 0; i < component_count; ++i) {
    const Component& component = components[i];
    ChunkCompletion completion;
    completion.type = component.type;
    completion.track_id = *component.track_id;
    completion.chunk_index = chunk_index;
    completion.bytes = component.chunk->size_bytes;
    completion.start_t = f.request_t;
    completion.end_t = now_;
    player_.on_chunk_complete(completion, make_context());
  }
}

void StreamingSession::perform_seek(const SeekEvent& seek) {
  // Snap the target to a chunk boundary so audio and video restart aligned.
  const double chunk_s = content_.chunk_duration_s();
  int target_chunk = static_cast<int>(seek.to_position_s / chunk_s);
  target_chunk = std::clamp(target_chunk, 0, total_chunks_ - 1);
  const double target_position = static_cast<double>(target_chunk) * chunk_s;

  SeekRecord record;
  record.at_t = now_;
  record.from_position_s = playhead_s_;
  record.to_position_s = target_position;
  log_.record_seek(record);

  // Cancel in-flight downloads (wasted bytes, accounted like abandonment).
  for (Flow* f : {&audio_flow_, &video_flow_}) {
    if (f->active) {
      emit_progress(*f, now_);
      abort_flow(*f);
    }
  }
  audio_buffer_.clear();
  video_buffer_.clear();
  next_audio_chunk_ = target_chunk;
  next_video_chunk_ = target_chunk;
  playhead_s_ = target_position;
  playhead_flush_base_ = target_position;
  // Rebuffer at the new position; the gap counts as a stall when playback
  // was running (the user watches a spinner either way).
  if (started_ && playing_) {
    playing_ = false;
    stall_start_t_ = now_;
    DMX_TRACE_SPAN_BEGIN(config_.tracer, obs::kCatStall, config_.trace_track,
                         obs::kLanePlayback, "stall", now_,
                         obs::TraceArgs().kv("cause", "seek"));
  }
  re_anchor();
  DMX_TRACE_INSTANT(config_.tracer, obs::kCatStall, config_.trace_track,
                    obs::kLanePlayback, "seek", now_,
                    obs::TraceArgs()
                        .kv("from_s", record.from_position_s)
                        .kv("to_s", target_position));
}

void StreamingSession::poll_player() {
  // Offer free download slots to the player until it declines.
  for (int guard = 0; guard < 4; ++guard) {
    if (active_flow_count() >= player_.max_concurrent_downloads()) return;
    if (all_chunks_downloaded()) return;
    const PlayerContext ctx = make_context();
    const std::optional<DownloadRequest> request = player_.next_request(ctx);
    if (!request.has_value()) return;
    assert(!flow(request->type).active && "player requested a busy media type");
    DMX_TRACE_INSTANT(config_.tracer, obs::kCatAbr, config_.trace_track,
                      obs::kLaneAbr, "abr_decision", now_,
                      obs::TraceArgs()
                          .kv("type", media_type_name(request->type))
                          .kv("track_id", request->track_id)
                          .kv("chunk", request->chunk_index)
                          .kv("abuf_s", ctx.audio_buffer_s)
                          .kv("vbuf_s", ctx.video_buffer_s)
                          .kv("est_kbps", player_.bandwidth_estimate_kbps()));
    start_flow(*request);
  }
}

void StreamingSession::handle_playback_transitions() {
  const bool audio_done = next_audio_chunk_ >= total_chunks_;
  const bool video_done = next_video_chunk_ >= total_chunks_;
  const bool everything_downloaded = audio_done && video_done;

  if (!started_) {
    if ((audio_buffer_.level_s() >= config_.startup_buffer_s - kEps &&
         video_buffer_.level_s() >= config_.startup_buffer_s - kEps) ||
        everything_downloaded) {
      started_ = true;
      playing_ = true;
      re_anchor();
      log_.startup_delay_s = now_ - config_.start_time_s;
      DMX_TRACE_INSTANT(config_.tracer, obs::kCatBuffer, config_.trace_track,
                        obs::kLanePlayback, "playback_start", now_,
                        obs::TraceArgs().kv("delay_s", log_.startup_delay_s));
    }
    return;
  }

  if (playing_) {
    const bool audio_underrun = audio_buffer_.empty() && !audio_done;
    const bool video_underrun = video_buffer_.empty() && !video_done;
    if (audio_underrun || video_underrun) {
      playing_ = false;
      stall_start_t_ = now_;
      re_anchor();
      DMX_TRACE_SPAN_BEGIN(
          config_.tracer, obs::kCatStall, config_.trace_track, obs::kLanePlayback,
          "stall", now_,
          obs::TraceArgs().kv("cause", audio_underrun ? "audio" : "video"));
    }
    return;
  }

  // Stalled: resume when both buffers recover (or nothing more to download).
  if ((audio_buffer_.level_s() >= config_.resume_buffer_s - kEps &&
       video_buffer_.level_s() >= config_.resume_buffer_s - kEps) ||
      everything_downloaded) {
    playing_ = true;
    re_anchor();
    log_.record_stall(stall_start_t_, now_);
    DMX_TRACE_SPAN_END(config_.tracer, obs::kCatStall, config_.trace_track,
                       obs::kLanePlayback, "stall", now_,
                       obs::TraceArgs().kv("dur_s", now_ - stall_start_t_));
  }
}

void StreamingSession::sample_series() {
  if (config_.telemetry != nullptr) {
    // Tick instants are engine-identical, so the binned counts inherit the
    // determinism contract. stalled = started but not currently playing.
    config_.telemetry->sample_session(telemetry_cursor_, now_,
                                      audio_buffer_.level_s(),
                                      video_buffer_.level_s(),
                                      started_ && !playing_);
  }
  DMX_TRACE_COUNTER(config_.tracer, obs::kCatBuffer, config_.trace_track,
                    "buffer_s", now_,
                    obs::TraceArgs()
                        .kv("audio", audio_buffer_.level_s())
                        .kv("video", video_buffer_.level_s()));
  // The only source of the §3.4 imbalance metric, so it runs whether or not
  // the series below are recorded.
  log_.record_buffer_levels(now_, audio_buffer_.level_s(), video_buffer_.level_s());
  if (!config_.record_series) return;
  log_.audio_buffer_s.add(now_, audio_buffer_.level_s());
  log_.video_buffer_s.add(now_, video_buffer_.level_s());
  log_.bandwidth_estimate_kbps.add(now_, player_.bandwidth_estimate_kbps());
  const double interval = now_ - last_series_sample_t_;
  if (interval > 0.0) {
    // Interval throughput as a difference of lifetime byte totals — each an
    // event-time constant, so the series is engine-independent.
    log_.achieved_throughput_kbps.add(
        now_, (lifetime_bytes() - lifetime_bytes_at_last_sample_) * 8.0 /
                  1000.0 / interval);
  }
  last_series_sample_t_ = now_;
  lifetime_bytes_at_last_sample_ = lifetime_bytes();
}

void StreamingSession::start() {
  player_.start(view_);
  log_.player_name = player_.name();  // after start: names can be protocol-dependent
  next_tick_ = config_.start_time_s + config_.delta_s;
  sample_series();
  poll_player();
}

bool StreamingSession::done() const {
  return log_.completed || stopped_ || now_ >= config_.max_sim_time_s;
}

void StreamingSession::begin_step() {
  // Deliveries owed from completions fire before this session's own
  // registrations, so a chunk completed at t is cached before any lookup at
  // t by this or any higher-id session (sim/flow_router.h ordering).
  flush_deliveries();
  // Register flows whose RTT phase ended: record the link's service integral
  // as the flow's zero point and file its completion target with the link.
  for (Flow* f : {&audio_flow_, &video_flow_}) {
    if (f->active && !f->on_link && now_ >= f->data_start_t) {
      Channel* channel = &network_.link_for(f->request.type == MediaType::kVideo);
      f->route_ticket = 0;
      if (network_.router != nullptr) {
        const FlowRoute route = network_.router->admit(f->request, *channel, now_);
        if (route.channel != nullptr) channel = route.channel;
        f->route_ticket = route.ticket;
      }
      f->channel = channel;
      f->v_start_kbit = channel->add_flow(now_);
      f->v_target_kbit =
          f->v_start_kbit + static_cast<double>(f->total_bytes) * 0.008;
      channel->register_completion(f->token, f->v_target_kbit);
      f->on_link = true;
    }
  }
}

void StreamingSession::flush_deliveries() {
  if (pending_deliveries_.empty()) return;
  for (const PendingDelivery& delivery : pending_deliveries_) {
    network_.router->delivered(delivery.request, delivery.ticket, now_);
  }
  pending_deliveries_.clear();
}

double StreamingSession::next_event_time() const {
  double t = next_local_event_time();
  for (const Flow* f : {&audio_flow_, &video_flow_}) {
    if (f->active && f->on_link) {
      t = std::min(t, link_of(*f).time_when_service_reaches(f->v_target_kbit));
    }
  }
  if (!(t > now_)) t = now_ + 1e-6;  // forward progress guard
  return t;
}

double StreamingSession::next_local_event_time() const {
  double t = next_tick_;
  for (const Flow* f : {&audio_flow_, &video_flow_}) {
    if (f->active && !f->on_link) t = std::min(t, f->data_start_t);
  }
  if (playing_) {
    if (next_audio_chunk_ < total_chunks_) {
      t = std::min(t, underrun_deadline(audio_buffer_));
    }
    if (next_video_chunk_ < total_chunks_) {
      t = std::min(t, underrun_deadline(video_buffer_));
    }
    t = std::min(t, content_end_deadline());
  }
  if (next_seek_ < config_.seeks.size()) {
    t = std::min(t, config_.seeks[next_seek_].at_time_s);
  }
  t = std::min(t, config_.max_sim_time_s);
  return t;
}

void StreamingSession::integrate_to(double t) {
  if (t < now_) return;
  // Assign, never accumulate: every value below is a pure function of
  // anchored state, so advancing through intermediate times (as the barrier
  // fleet engine does at every global step) leaves no numerical trace.
  for (Flow* f : {&audio_flow_, &video_flow_}) {
    if (f->active && f->on_link) {
      const double served =
          (link_of(*f).service_at(t) - f->v_start_kbit) * 125.0;
      f->bytes_done =
          std::clamp(served, 0.0, static_cast<double>(f->total_bytes));
    }
  }
  if (playing_) {
    playhead_s_ = playhead_anchor_ + (t - anchor_t_);
    const double consumed = playhead_s_ - playhead_flush_base_;
    audio_buffer_.drain_to(consumed);
    video_buffer_.drain_to(consumed);
  }
  now_ = t;
}

void StreamingSession::process_events() {
  // The sim-time cap is itself an event: abort in-flight downloads so
  // shared-link slots are released, close an open stall, and finish exactly
  // at the cap. Anything else nominally due at the cap is dropped — in every
  // engine, since the cap is an exact event-time candidate in both.
  if (now_ >= config_.max_sim_time_s && !log_.completed && !stopped_) {
    abort_session();
    return;
  }

  // Fire only when one of this session's own events is due. A barrier fleet
  // engine also calls this at other sessions' event times; bailing out here
  // keeps player-visible actions (polling, transitions) pinned to the same
  // instants the event-heap engine visits, which is what makes the two
  // engines bit-identical.
  // Per-flow due flags, computed once and reused by the firing loop below.
  // Safe to cache: completing one flow at t cannot flip the other's status —
  // V(t) is already fixed, and a target above V(t) completes strictly after
  // t no matter how the population changes at t.
  bool completion_due = false;
  bool flow_due[2] = {false, false};
  {
    int i = 0;
    for (const Flow* f : {&audio_flow_, &video_flow_}) {
      if (f->active && f->on_link &&
          link_of(*f).time_when_service_reaches(f->v_target_kbit) <= now_) {
        flow_due[i] = true;
        completion_due = true;
      }
      ++i;
    }
  }
  const bool tick_due = now_ >= next_tick_;
  const bool seek_due = next_seek_ < config_.seeks.size() &&
                        now_ >= config_.seeks[next_seek_].at_time_s;
  bool deadline_due = false;
  if (playing_) {
    if (content_end_deadline() <= now_) deadline_due = true;
    if (next_audio_chunk_ < total_chunks_ &&
        underrun_deadline(audio_buffer_) <= now_) {
      deadline_due = true;
    }
    if (next_video_chunk_ < total_chunks_ &&
        underrun_deadline(video_buffer_) <= now_) {
      deadline_due = true;
    }
  }
  if (!completion_due && !tick_due && !seek_due && !deadline_due) return;

  if (completion_due) {
    int i = 0;
    for (Flow* f : {&audio_flow_, &video_flow_}) {
      if (flow_due[i] && f->active && f->on_link) {
        f->bytes_done = static_cast<double>(f->total_bytes);
        complete_flow(*f);
      }
      ++i;
    }
  }
  if (tick_due) {
    for (Flow* f : {&audio_flow_, &video_flow_}) {
      if (f->active && f->on_link) {
        const auto sample = emit_progress(*f, now_);
        if (sample.has_value() && player_.should_abandon(*sample, make_context())) {
          abort_flow(*f);
        }
      }
    }
    sample_series();
    next_tick_ += config_.delta_s;
  }

  if (seek_due) {
    perform_seek(config_.seeks[next_seek_]);
    ++next_seek_;
  }

  handle_playback_transitions();
  poll_player();

  if (started_ && playhead_s_ + kEps >= content_duration_s_) {
    log_.completed = true;
  }
}

std::uint64_t StreamingSession::run_idle_ticks(double horizon) {
  std::uint64_t ticks = 0;
  while (!done() && !audio_flow_.active && !video_flow_.active &&
         pending_deliveries_.empty()) {
    const double t = next_local_event_time();
    if (t != next_tick_ || !(t < horizon)) break;
    advance_to(t);
    ++ticks;
  }
  return ticks;
}

void StreamingSession::abort_session() {
  for (Flow* f : {&audio_flow_, &video_flow_}) {
    if (f->active) {
      emit_progress(*f, now_);
      abort_flow(*f);
    }
  }
  // Close an open stall so the log's stall accounting is complete.
  if (started_ && !playing_) {
    log_.record_stall(stall_start_t_, now_);
    DMX_TRACE_SPAN_END(config_.tracer, obs::kCatStall, config_.trace_track,
                       obs::kLanePlayback, "stall", now_,
                       obs::TraceArgs().kv("dur_s", now_ - stall_start_t_));
    playing_ = true;
  }
  stopped_ = true;
}

SessionLog StreamingSession::finish() {
  log_.end_time_s = now_;
  return std::move(log_);
}

SessionLog StreamingSession::run() {
  start();
  // A solo session owns its track; a fleet names its clients' tracks itself.
  if (config_.tracer != nullptr) {
    config_.tracer->name_track(config_.trace_track, "session " + log_.player_name);
  }
  while (!done()) {
    begin_step();
    advance_to(next_event_time());
  }
  return finish();
}

SessionLog run_session(const Content& content, const ManifestView& view,
                       const Network& network, PlayerAdapter& player,
                       const SessionConfig& config) {
  StreamingSession session(content, view, network, player, config);
  return session.run();
}

}  // namespace demuxabr
