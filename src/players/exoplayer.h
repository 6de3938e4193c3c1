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

/// What both ExoPlayer models share: AdaptiveTrackSelection over an
/// ascending bandwidth ladder, fed by the bandwidth meter; serial downloads
/// that stop at DEFAULT_MAX_BUFFER; and chunk-level A/V synchronization.
class ExoPlayerBase : public PlayerAdapter {
 public:
  /// AdaptiveTrackSelection's bandwidthFraction: the share of the estimate
  /// a selection may spend.
  static constexpr double kBandwidthFraction = 0.75;
  /// minDurationForQualityIncreaseMs: switching up needs this much buffer.
  static constexpr double kMinDurationForQualityIncreaseS = 10.0;
  /// maxDurationForQualityDecreaseMs: no switching down above this buffer.
  static constexpr double kMaxDurationForQualityDecreaseS = 25.0;
  /// DEFAULT_MAX_BUFFER: both types stop fetching here.
  static constexpr double kMaxBufferS = 30.0;

  [[nodiscard]] int max_concurrent_downloads() const override { return 1; }
  void on_chunk_complete(const ChunkCompletion& completion,
                         const PlayerContext& ctx) override;
  [[nodiscard]] double bandwidth_estimate_kbps() const override;
  [[nodiscard]] double idle_floor_s(MediaType type) const override;
  /// The bandwidth meter reads finished transfers only.
  [[nodiscard]] bool observes_progress() const override { return false; }

 protected:
  /// Restart the selection over an ascending bandwidth ladder.
  void reset_selection(std::vector<double> ladder_kbps);
  /// The highest rung within kBandwidthFraction of the estimate: taken at
  /// once on the first call, later only through the buffer gates. Returns
  /// the selected rung.
  std::size_t update_selection(const PlayerContext& ctx);
  [[nodiscard]] std::size_t selected() const { return current_; }

 private:
  ExoBandwidthMeter meter_;
  std::vector<double> ladder_kbps_;
  std::size_t current_ = 0;
  bool selection_initialized_ = false;
};

class ExoPlayerModel : public ExoPlayerBase {
 public:
  [[nodiscard]] std::string name() const override;
  void start(const ManifestView& view) override;
  std::optional<DownloadRequest> next_request(const PlayerContext& ctx) override;

  /// The combination ladder the model adapts over (for tests/inspection).
  [[nodiscard]] const std::vector<ComboView>& combinations() const { return combos_; }
  [[nodiscard]] std::size_t current_combination_index() const { return selected(); }

 private:
  Protocol protocol_ = Protocol::kDash;
  std::vector<ComboView> combos_;  ///< ascending bandwidth
};

}  // namespace demuxabr
