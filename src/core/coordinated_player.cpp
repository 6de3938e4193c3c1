#include "core/coordinated_player.h"

#include <algorithm>
#include <cassert>

#include "core/bba_abr.h"
#include "core/mpc_abr.h"
#include "players/fetch_order.h"

namespace demuxabr {
namespace {

/// Client-side fallback: build a curated combination ladder from per-track
/// declared bitrates when the manifest does not restrict combinations.
std::vector<ComboView> curate_from_view(const ManifestView& view,
                                        const CurationPolicy& policy) {
  const std::vector<TrackView> video = view.tracks_by_rate(MediaType::kVideo);
  const std::vector<TrackView> audio = view.tracks_by_rate(MediaType::kAudio);

  // Device screen filter (heights are known for DASH video tracks).
  std::vector<TrackView> eligible_video;
  for (const TrackView& t : video) {
    if (t.height == 0 || t.height <= policy.device.max_video_height()) {
      eligible_video.push_back(t);
    }
  }
  if (eligible_video.empty()) eligible_video.push_back(video.front());

  // curate_combinations' pairing, expanded into a full staircase (one
  // component changes per step) for finer granularity.
  const double w = policy.audio_importance();
  std::vector<ComboView> combos;
  for (const auto& [i, j] :
       staircase_path(audio_pairing(eligible_video.size(), audio.size(), w), w >= 0.5)) {
    combos.push_back(pair_combo(eligible_video[i], audio[j]));
  }
  return combos;
}

}  // namespace

std::string CoordinatedPlayer::name() const {
  switch (config_.algorithm) {
    case AbrAlgorithm::kMpc: return "coordinated-mpc";
    case AbrAlgorithm::kBufferBased: return "coordinated-bba";
    case AbrAlgorithm::kHysteresisRate: break;
  }
  return "coordinated";
}

void CoordinatedPlayer::start(const ManifestView& view) {
  estimator_ = AggregateThroughputEstimator();
  video_estimator_ = AggregateThroughputEstimator();
  audio_estimator_ = AggregateThroughputEstimator();
  combo_for_chunk_.clear();

  // §4.2: select ONLY from the allowed combinations; plain DASH curates
  // client-side instead of free-pairing.
  std::vector<ComboView> allowed = view.has_combination_list
                                       ? view.combos_sorted()
                                       : curate_from_view(view, config_.fallback_policy);
  switch (config_.algorithm) {
    case AbrAlgorithm::kMpc:
      controller_ = std::make_unique<MpcJointAbr>(std::move(allowed));
      break;
    case AbrAlgorithm::kBufferBased:
      controller_ = std::make_unique<BufferBasedJointAbr>(std::move(allowed));
      break;
    case AbrAlgorithm::kHysteresisRate:
      controller_ = std::make_unique<JointAbrController>(std::move(allowed), config_.abr);
      break;
  }
  if (view.chunk_duration_s > 0.0) {
    chunk_duration_s_ = view.chunk_duration_s;
    prefetcher_.set_max_imbalance_s(view.chunk_duration_s);
  }
}

std::size_t CoordinatedPlayer::path_feasible_cap() const {
  const std::vector<ComboView>& combos = allowed();
  std::size_t cap = combos.size() - 1;
  if (!config_.per_path_estimation) return cap;
  const double video_budget = JointAbrController::kSafetyFactor * video_estimator_.estimate_kbps();
  const double audio_budget = JointAbrController::kSafetyFactor * audio_estimator_.estimate_kbps();
  if (video_budget <= 0.0 || audio_budget <= 0.0) return cap;
  // Highest combination whose per-component requirements fit their paths.
  // Combinations without component info are only gated by the controller's
  // total-budget check.
  std::size_t feasible = 0;
  bool any = false;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    if (!combos[i].components_known()) continue;
    if (combos[i].video_kbps <= video_budget && combos[i].audio_kbps <= audio_budget) {
      feasible = i;
      any = true;
    }
  }
  return any ? feasible : 0;
}

std::size_t CoordinatedPlayer::decide(const PlayerContext& ctx) {
  const double min_buffer = std::min(ctx.audio_buffer_s, ctx.video_buffer_s);
  // Split-path mode: total capacity is the sum of the paths; shared mode:
  // the aggregate estimator already measures the one pipe.
  const double estimate =
      config_.per_path_estimation
          ? video_estimator_.estimate_kbps() + audio_estimator_.estimate_kbps()
          : estimator_.estimate_kbps();
  const std::size_t index = controller_->decide({.now = ctx.now,
                                                 .estimate_kbps = estimate,
                                                 .min_buffer_s = min_buffer,
                                                 .chunk_duration_s = chunk_duration_s_});
  // Per-path feasibility cap (§4.1). The allowed list is a monotone
  // staircase, so clamping by index clamps both components.
  return std::min(index, path_feasible_cap());
}

std::optional<DownloadRequest> CoordinatedPlayer::next_request(const PlayerContext& ctx) {
  assert(controller_ != nullptr && "start() not called");
  std::optional<MediaType> type;
  if (config_.prefetch_mode == PrefetchMode::kBalanced) {
    type = prefetcher_.next_type(ctx);
  } else {
    // Ablation: greedy video-first scheduling with no balance constraint.
    for (MediaType candidate : {MediaType::kVideo, MediaType::kAudio}) {
      if (may_fetch(ctx, candidate, prefetcher_.config().buffer_target_s)) {
        type = candidate;
        break;
      }
    }
  }
  if (!type.has_value()) return std::nullopt;

  // The combination is pinned per chunk position (§4.2 joint selection):
  // decided when the first component of the pair is requested, reused for
  // the second, so played pairs always come from the allowed list.
  const int chunk = ctx.next_chunk(*type);
  std::size_t index;
  if (auto it = combo_for_chunk_.find(chunk); it != combo_for_chunk_.end()) {
    index = it->second;
  } else {
    index = decide(ctx);
    combo_for_chunk_[chunk] = index;
    // Chunks behind the playhead can never be requested again; drop them.
    combo_for_chunk_.erase(combo_for_chunk_.begin(),
                           combo_for_chunk_.lower_bound(chunk - 4));
  }
  const ComboView& combo = allowed()[index];

  DownloadRequest request;
  request.type = *type;
  request.track_id = *type == MediaType::kVideo ? combo.video_id : combo.audio_id;
  request.chunk_index = chunk;
  return request;
}

void CoordinatedPlayer::on_progress(const ProgressSample& sample) {
  estimator_.on_progress(sample);
  if (sample.type == MediaType::kVideo) {
    video_estimator_.on_progress(sample);
  } else {
    audio_estimator_.on_progress(sample);
  }
}

double CoordinatedPlayer::bandwidth_estimate_kbps() const {
  if (config_.per_path_estimation) {
    return video_estimator_.estimate_kbps() + audio_estimator_.estimate_kbps();
  }
  return estimator_.estimate_kbps();
}

double CoordinatedPlayer::path_estimate_kbps(MediaType type) const {
  return type == MediaType::kVideo ? video_estimator_.estimate_kbps()
                                   : audio_estimator_.estimate_kbps();
}

}  // namespace demuxabr
