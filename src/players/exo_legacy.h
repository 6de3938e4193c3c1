// ExoPlayer pre-v2.10 behavioural model (§3.2): "for multiple demuxed video
// and audio tracks, it selected a fixed audio track and used it throughout
// the session without any audio rate adaptation."
//
// Video runs the v2.10 model's AdaptiveTrackSelection (ExoPlayerBase) over
// the *video tracks alone*, re-selecting on video requests only; audio is
// pinned to a fixed rendition (by default the first listed / lowest). The
// model exists as the historical baseline: it shows why the paper calls the
// v2.10 joint adaptation an improvement, and what "no audio adaptation"
// costs when the audio track is not negligible (§4.2).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "players/exoplayer.h"

namespace demuxabr {

struct ExoLegacyConfig {
  /// Which audio rendition to pin: index into the manifest's audio list.
  /// The real player's choice depended on track-group ordering; 0 models
  /// the common "first listed" outcome.
  std::size_t fixed_audio_index = 0;
};

class ExoLegacyPlayerModel : public ExoPlayerBase {
 public:
  explicit ExoLegacyPlayerModel(ExoLegacyConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "exoplayer-legacy"; }
  void start(const ManifestView& view) override;
  std::optional<DownloadRequest> next_request(const PlayerContext& ctx) override;

  [[nodiscard]] const std::string& fixed_audio_id() const { return audio_id_; }

 private:
  ExoLegacyConfig config_;
  std::string audio_id_;
  std::vector<std::string> video_ids_;  ///< ascending declared bitrate
};

}  // namespace demuxabr
