#include "players/shaka.h"

#include <cassert>

#include "players/fetch_order.h"

namespace demuxabr {

std::string ShakaPlayerModel::name() const {
  return protocol_ == Protocol::kDash ? "shaka-dash" : "shaka-hls";
}

void ShakaPlayerModel::start(const ManifestView& view) {
  protocol_ = view.protocol;
  estimator_ = ShakaBandwidthEstimator(config_.estimator);
  // Under DASH the player creates every audio x video combination when
  // parsing the manifest (§3.3), priced at the sum of declared bitrates.
  combos_ = view.listed_or_grid();
  assert(!combos_.empty());
}

std::size_t ShakaPlayerModel::select_for_estimate(double estimate_kbps) const {
  // Highest combination whose bandwidth requirement fits the estimate;
  // the lowest one when nothing fits. No hysteresis (§3.3).
  std::size_t choice = 0;
  for (std::size_t i = 0; i < combos_.size(); ++i) {
    if (combos_[i].bandwidth_kbps <= estimate_kbps) choice = i;
  }
  return choice;
}

std::optional<DownloadRequest> ShakaPlayerModel::next_request(const PlayerContext& ctx) {
  // Independent per-type pipelines, both filling to the bufferingGoal.
  const std::optional<MediaType> type =
      lowest_buffer_type(ctx, kBufferingGoalS, kBufferingGoalS);
  if (!type.has_value()) return std::nullopt;
  const ComboView& combo = combos_[select_for_estimate(estimator_.estimate_kbps())];
  DownloadRequest request;
  request.type = *type;
  request.track_id = *type == MediaType::kVideo ? combo.video_id : combo.audio_id;
  request.chunk_index = ctx.next_chunk(*type);
  return request;
}

void ShakaPlayerModel::on_progress(const ProgressSample& sample) {
  estimator_.on_progress(sample);
}

double ShakaPlayerModel::bandwidth_estimate_kbps() const {
  return estimator_.estimate_kbps();
}

}  // namespace demuxabr
