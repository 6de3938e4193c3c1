// ExoPlayer pre-v2.10 behavioural model (§3.2): "for multiple demuxed video
// and audio tracks, it selected a fixed audio track and used it throughout
// the session without any audio rate adaptation."
//
// Video runs the familiar AdaptiveTrackSelection (bandwidth fraction 0.75,
// buffer-gated switches) over the *video tracks alone*; audio is pinned to a
// fixed rendition (by default the first listed / lowest). The model exists
// as the historical baseline: it shows why the paper calls the v2.10 joint
// adaptation an improvement, and what "no audio adaptation" costs when the
// audio track is not negligible (§4.2).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "players/estimators.h"
#include "sim/player.h"

namespace demuxabr {

struct ExoLegacyConfig {
  double bandwidth_fraction = 0.75;
  double min_duration_for_quality_increase_s = 10.0;
  double max_duration_for_quality_decrease_s = 25.0;
  double max_buffer_s = 30.0;
  /// Which audio rendition to pin: index into the manifest's audio list.
  /// The real player's choice depended on track-group ordering; 0 models
  /// the common "first listed" outcome.
  std::size_t fixed_audio_index = 0;
  ExoMeterConfig meter{};
};

class ExoLegacyPlayerModel : public PlayerAdapter {
 public:
  explicit ExoLegacyPlayerModel(ExoLegacyConfig config = {});

  [[nodiscard]] std::string name() const override { return "exoplayer-legacy"; }
  void start(const ManifestView& view) override;
  [[nodiscard]] int max_concurrent_downloads() const override { return 1; }
  std::optional<DownloadRequest> next_request(const PlayerContext& ctx) override;
  void on_chunk_complete(const ChunkCompletion& completion,
                         const PlayerContext& ctx) override;
  [[nodiscard]] double bandwidth_estimate_kbps() const override;
  /// Both types stop fetching at max_buffer_s.
  [[nodiscard]] double idle_floor_s(MediaType type) const override {
    (void)type;
    return config_.max_buffer_s;
  }
  /// The bandwidth meter reads finished transfers only.
  [[nodiscard]] bool observes_progress() const override { return false; }

  [[nodiscard]] const std::string& fixed_audio_id() const { return audio_id_; }
  [[nodiscard]] std::size_t current_video_index() const { return current_; }

 private:
  void update_selection(const PlayerContext& ctx);

  ExoLegacyConfig config_;
  ExoBandwidthMeter meter_;
  std::string audio_id_;
  std::vector<std::string> video_ids_;     ///< ascending declared bitrate
  std::vector<double> video_kbps_;         ///< declared; falls back to variant
                                           ///< aggregates under HLS
  std::size_t current_ = 0;
  bool selection_initialized_ = false;
};

}  // namespace demuxabr
