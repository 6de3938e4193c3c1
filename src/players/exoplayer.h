// ExoPlayer v2.10 behavioural model (§3.2).
//
// DASH: joint audio+video adaptation over the *predetermined combinations*
// built from per-track declared bitrates (players/exo_combinations.h), with
// AdaptiveTrackSelection's parameters: the bandwidth estimate is multiplied
// by bandwidthFraction = 0.75, switching up requires >= 10 s of buffer and
// switching down is suppressed above 25 s of buffer.
//
// HLS: the same adaptation code runs, but the top-level master playlist
// carries no per-track audio bitrates, so the model (faithfully) assumes all
// audio renditions are equal quality — it pins the FIRST listed rendition
// for the whole session — and prices each video track at the aggregate
// BANDWIDTH of the first variant containing it (an overestimate). This
// reproduces the paper's Fig 3 behaviours, including selecting combinations
// that are not in the manifest.
//
// Downloading is serial with chunk-level audio/video synchronization (the
// behaviour §3.5 singles out as desirable in ExoPlayer).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "players/estimators.h"
#include "sim/player.h"

namespace demuxabr {

struct ExoPlayerConfig {
  double bandwidth_fraction = 0.75;
  double min_duration_for_quality_increase_s = 10.0;
  double max_duration_for_quality_decrease_s = 25.0;
  /// Stop fetching when both buffers exceed this (DEFAULT_MAX_BUFFER).
  double max_buffer_s = 30.0;
  ExoMeterConfig meter{};
};

class ExoPlayerModel : public PlayerAdapter {
 public:
  explicit ExoPlayerModel(ExoPlayerConfig config = {});

  [[nodiscard]] std::string name() const override;
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

  /// The combination ladder the model adapts over (for tests/inspection).
  [[nodiscard]] const std::vector<ComboView>& combinations() const { return combos_; }
  [[nodiscard]] std::size_t current_combination_index() const { return current_; }

 private:
  void update_selection(const PlayerContext& ctx);

  ExoPlayerConfig config_;
  ExoBandwidthMeter meter_;
  Protocol protocol_ = Protocol::kDash;
  std::vector<ComboView> combos_;  ///< ascending bandwidth
  std::size_t current_ = 0;
  bool selection_initialized_ = false;
};

}  // namespace demuxabr
