#include "core/muxed_player.h"

#include <algorithm>
#include <cassert>

namespace demuxabr {

void MuxedPlayer::start(const ManifestView& view) {
  estimator_ = AggregateThroughputEstimator();
  // Without a list, a muxed origin stores every pairing: the same M x N
  // grid the storage model accounts.
  abr_ = std::make_unique<JointAbrController>(view.listed_or_grid());
}

std::optional<DownloadRequest> MuxedPlayer::next_request(const PlayerContext& ctx) {
  assert(abr_ != nullptr && "start() not called");
  // Positions advance in lockstep; either buffer level works as the gate.
  if (ctx.video_downloading || ctx.audio_downloading) return std::nullopt;
  if (ctx.next_video_chunk >= ctx.total_chunks) return std::nullopt;
  if (ctx.video_buffer_s >= kBufferTargetS) return std::nullopt;

  const double min_buffer = std::min(ctx.audio_buffer_s, ctx.video_buffer_s);
  const std::size_t index =
      abr_->decide(ctx.now, estimator_.estimate_kbps(), min_buffer);
  const ComboView& combo = abr_->allowed()[index];

  DownloadRequest request;
  request.type = MediaType::kVideo;
  request.muxed = true;
  request.track_id = combo.video_id;
  request.audio_track_id = combo.audio_id;
  request.chunk_index = ctx.next_video_chunk;
  return request;
}

void MuxedPlayer::on_progress(const ProgressSample& sample) {
  estimator_.on_progress(sample);
}

double MuxedPlayer::bandwidth_estimate_kbps() const {
  return estimator_.estimate_kbps();
}

const std::vector<ComboView>& MuxedPlayer::variants() const {
  assert(abr_ != nullptr);
  return abr_->allowed();
}

}  // namespace demuxabr
