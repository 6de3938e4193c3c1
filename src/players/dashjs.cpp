#include "players/dashjs.h"

#include <cassert>

#include "players/fetch_order.h"

namespace demuxabr {

void DashJsPlayerModel::start(const ManifestView& view) {
  // dash.js is a DASH-only player; it needs per-track declared bitrates.
  assert(view.protocol == Protocol::kDash);
  if (view.chunk_duration_s > 0.0) chunk_duration_s_ = view.chunk_duration_s;
  for (MediaType type : {MediaType::kAudio, MediaType::kVideo}) {
    Pipeline& p = pipeline(type);
    p = Pipeline{};  // THROUGHPUT at the lowest quality, as dash.js starts
    for (const TrackView& t : view.tracks_by_rate(type)) {
      assert(t.bitrate_known);
      p.track_ids.push_back(t.id);
      p.bitrates_kbps.push_back(t.declared_kbps);
    }
    assert(!p.track_ids.empty());
    p.bola = std::make_unique<Bola>(p.bitrates_kbps, kStableBufferS);
  }
}

std::size_t DashJsPlayerModel::adapt(Pipeline& p, double buffer_s) {
  // THROUGHPUT rule: highest track under safety * estimate; lowest track
  // until the estimator has samples.
  std::size_t tput_choice = 0;
  if (p.estimator.has_samples()) {
    const double budget = kThroughputSafetyFactor * p.estimator.estimate_kbps();
    for (std::size_t i = 0; i < p.bitrates_kbps.size(); ++i) {
      if (p.bitrates_kbps[i] <= budget) tput_choice = i;
    }
  }
  const std::size_t bola_choice = p.bola->choose(buffer_s);

  // DYNAMIC switching (§3.4 / [22]).
  if (p.state == RuleState::kThroughput) {
    if (buffer_s >= kSwitchToBolaS && bola_choice >= tput_choice) {
      p.state = RuleState::kBola;
    }
  } else {
    if (buffer_s < kSwitchToThroughputS && bola_choice < tput_choice) {
      p.state = RuleState::kThroughput;
    }
  }
  p.current = p.state == RuleState::kBola ? bola_choice : tput_choice;
  return p.current;
}

double DashJsPlayerModel::fetch_target_s(const Pipeline& p) const {
  return p.current + 1 == p.track_ids.size() ? kTopQualityBufferS : kStableBufferS;
}

double DashJsPlayerModel::idle_floor_s(MediaType type) const {
  return fetch_target_s(pipeline(type));
}

std::optional<DownloadRequest> DashJsPlayerModel::next_request(const PlayerContext& ctx) {
  // Two independent fetch pipelines; no cross-type synchronization at all
  // (the §3.4/§3.5 finding). Each type fetches while its own buffer is below
  // its own target.
  const std::optional<MediaType> chosen =
      lowest_buffer_type(ctx, fetch_target_s(audio_), fetch_target_s(video_));
  if (!chosen.has_value()) return std::nullopt;
  const MediaType type = *chosen;
  Pipeline& p = pipeline(type);
  const std::size_t index = adapt(p, ctx.buffer_s(type));

  DownloadRequest request;
  request.type = type;
  request.track_id = p.track_ids[index];
  request.chunk_index = ctx.next_chunk(type);
  // Arm the abandonment tracker for the new in-flight chunk.
  p.inflight_expected_kbps = p.bitrates_kbps[index];
  p.inflight_elapsed_s = 0.0;
  p.inflight_bytes = 0;
  return request;
}

bool DashJsPlayerModel::should_abandon(const ProgressSample& sample,
                                       const PlayerContext& ctx) {
  (void)ctx;
  if (!config_.enable_abandonment) return false;
  Pipeline& p = pipeline(sample.type);
  p.inflight_elapsed_s += sample.duration_s();
  p.inflight_bytes += sample.bytes;
  if (p.current == 0) return false;  // nothing lower to fall back to
  if (p.inflight_elapsed_s < kAbandonGraceS) return false;
  if (p.inflight_bytes <= 0 || p.inflight_expected_kbps <= 0.0) return false;
  const double throughput_kbps = static_cast<double>(p.inflight_bytes) * 8.0 / 1000.0 /
                                 p.inflight_elapsed_s;
  const double projected_s =
      p.inflight_expected_kbps * chunk_duration_s_ / throughput_kbps;
  if (projected_s <= kAbandonMultiplier * chunk_duration_s_) return false;
  // Abandon: record the observed throughput so the next selection drops.
  p.estimator.add_chunk_throughput(throughput_kbps);
  p.inflight_expected_kbps = 0.0;
  p.inflight_elapsed_s = 0.0;
  p.inflight_bytes = 0;
  return true;
}

void DashJsPlayerModel::on_chunk_complete(const ChunkCompletion& completion,
                                          const PlayerContext& ctx) {
  (void)ctx;
  // Each pipeline's estimator sees only its own media type (§3.4).
  Pipeline& p = pipeline(completion.type);
  p.estimator.add_chunk_throughput(completion.throughput_kbps());
  p.inflight_expected_kbps = 0.0;
  p.inflight_elapsed_s = 0.0;
  p.inflight_bytes = 0;
}

double DashJsPlayerModel::bandwidth_estimate_kbps() const {
  return video_.estimator.estimate_kbps();
}

double DashJsPlayerModel::estimate_kbps(MediaType type) const {
  return pipeline(type).estimator.estimate_kbps();
}

}  // namespace demuxabr
