#include "players/exoplayer.h"

#include <algorithm>
#include <cassert>

#include "players/exo_combinations.h"
#include "players/fetch_order.h"

namespace demuxabr {

void ExoPlayerBase::on_chunk_complete(const ChunkCompletion& completion,
                                      const PlayerContext& ctx) {
  (void)ctx;
  meter_.on_transfer_end(completion.bytes, completion.duration_s());
}

double ExoPlayerBase::bandwidth_estimate_kbps() const { return meter_.estimate_kbps(); }

double ExoPlayerBase::idle_floor_s(MediaType type) const {
  (void)type;
  return kMaxBufferS;
}

void ExoPlayerBase::reset_selection(std::vector<double> ladder_kbps) {
  assert(!ladder_kbps.empty());
  ladder_kbps_ = std::move(ladder_kbps);
  current_ = 0;
  selection_initialized_ = false;
}

std::size_t ExoPlayerBase::update_selection(const PlayerContext& ctx) {
  const double allocatable = kBandwidthFraction * meter_.estimate_kbps();
  std::size_t ideal = 0;
  for (std::size_t i = 0; i < ladder_kbps_.size(); ++i) {
    if (ladder_kbps_[i] <= allocatable) ideal = i;
  }
  if (!selection_initialized_) {
    selection_initialized_ = true;
    return current_ = ideal;
  }
  const double buffered = std::min(ctx.audio_buffer_s, ctx.video_buffer_s);
  if (ideal > current_) {
    // Switch up only with enough buffer cushion.
    if (buffered >= kMinDurationForQualityIncreaseS) current_ = ideal;
  } else if (ideal < current_) {
    // Keep the higher quality when the buffer is already comfortable.
    if (buffered < kMaxDurationForQualityDecreaseS) current_ = ideal;
  }
  return current_;
}

std::string ExoPlayerModel::name() const {
  return protocol_ == Protocol::kDash ? "exoplayer-dash" : "exoplayer-hls";
}

void ExoPlayerModel::start(const ManifestView& view) {
  protocol_ = view.protocol;
  if (view.protocol == Protocol::kDash) {
    // Predetermined combinations from per-track declared bitrates.
    combos_ = exo_predetermined_combinations(view);
  } else {
    // HLS: no per-track audio bitrate in the top-level manifest, so all
    // audio renditions are assumed equal quality -> the first listed one is
    // used throughout (§3.2). Each video track is priced at the aggregate
    // BANDWIDTH of the first variant that contains it.
    assert(!view.audio_tracks.empty());
    combos_.clear();
    for (const TrackView& video : view.video_tracks) {
      const auto first_variant =
          std::find_if(view.combos.begin(), view.combos.end(),  // manifest order
                       [&](const ComboView& combo) { return combo.video_id == video.id; });
      if (first_variant == view.combos.end()) continue;  // never referenced
      ComboView combo;
      combo.video_id = video.id;
      combo.audio_id = view.audio_tracks.front().id;  // NOT necessarily the variant's!
      combo.bandwidth_kbps = first_variant->bandwidth_kbps;
      combo.avg_bandwidth_kbps = first_variant->avg_bandwidth_kbps;
      combos_.push_back(std::move(combo));
    }
    sort_by_bandwidth(combos_);
  }
  std::vector<double> ladder_kbps;
  for (const ComboView& combo : combos_) ladder_kbps.push_back(combo.bandwidth_kbps);
  reset_selection(std::move(ladder_kbps));
}

std::optional<DownloadRequest> ExoPlayerModel::next_request(const PlayerContext& ctx) {
  const std::optional<MediaType> type = chunk_synchronized_type(ctx, kMaxBufferS);
  if (!type.has_value()) return std::nullopt;
  const ComboView& combo = combos_[update_selection(ctx)];
  DownloadRequest request;
  request.type = *type;
  request.track_id = *type == MediaType::kVideo ? combo.video_id : combo.audio_id;
  request.chunk_index = ctx.next_chunk(*type);
  return request;
}

}  // namespace demuxabr
