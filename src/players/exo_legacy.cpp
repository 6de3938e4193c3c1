#include "players/exo_legacy.h"

#include <algorithm>
#include <cassert>

#include "players/fetch_order.h"

namespace demuxabr {

void ExoLegacyPlayerModel::start(const ManifestView& view) {
  assert(!view.audio_tracks.empty());
  const std::size_t audio_index =
      std::min(config_.fixed_audio_index, view.audio_tracks.size() - 1);
  audio_id_ = view.audio_tracks[audio_index].id;

  // Video ladder: per-track declared bitrates under DASH; the first
  // variant's aggregate BANDWIDTH under HLS (the same overestimation as the
  // v2.10 model — that code path predates it).
  struct VideoEntry {
    std::string id;
    double kbps;
  };
  std::vector<VideoEntry> entries;
  for (const TrackView& video : view.video_tracks) {
    double kbps = video.declared_kbps;
    if (!video.bitrate_known) {
      for (const ComboView& combo : view.combos) {
        if (combo.video_id == video.id) {
          kbps = combo.bandwidth_kbps;
          break;
        }
      }
    }
    if (kbps <= 0.0) continue;
    entries.push_back({video.id, kbps});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const VideoEntry& a, const VideoEntry& b) {
                     return a.kbps < b.kbps;
                   });
  video_ids_.clear();
  std::vector<double> ladder_kbps;
  for (const VideoEntry& entry : entries) {
    video_ids_.push_back(entry.id);
    ladder_kbps.push_back(entry.kbps);
  }
  reset_selection(std::move(ladder_kbps));
}

std::optional<DownloadRequest> ExoLegacyPlayerModel::next_request(
    const PlayerContext& ctx) {
  const std::optional<MediaType> type = chunk_synchronized_type(ctx, kMaxBufferS);
  if (!type.has_value()) return std::nullopt;
  DownloadRequest request;
  request.type = *type;
  request.chunk_index = ctx.next_chunk(*type);
  // Audio stays pinned, never adapted: only video requests re-select.
  request.track_id =
      *type == MediaType::kAudio ? audio_id_ : video_ids_[update_selection(ctx)];
  return request;
}

}  // namespace demuxabr
