// dash.js v2.9.3 behavioural model (§3.4).
//
// The defining property the paper dissects: audio and video are adapted
// *completely independently*. Each media type runs its own DYNAMIC rule
// (THROUGHPUT below the low buffer threshold, BOLA above the high one), its
// own bandwidth estimator fed only by its own downloads, and its own fetch
// pipeline — so the two buffers drift apart (Fig 5(b)) and combinations like
// V2+A3 emerge even when V3+A2 would fit the same bandwidth (Fig 5(a)).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "players/bola.h"
#include "players/estimators.h"
#include "sim/player.h"

namespace demuxabr {

struct DashJsConfig {
  /// AbandonRequestsRule: cancel a chunk whose projected download time
  /// exceeds kAbandonMultiplier x chunk duration (judged after
  /// kAbandonGraceS), feeding the measured throughput into the estimator.
  bool enable_abandonment = true;
};

class DashJsPlayerModel : public PlayerAdapter {
 public:
  /// DEFAULT_MIN_BUFFER_TIME_FAST_SWITCH (fastSwitch is on by default in
  /// v2.9): the fetch target below top quality.
  static constexpr double kStableBufferS = 20.0;
  /// The fetch target at top quality.
  static constexpr double kTopQualityBufferS = 30.0;
  /// THROUGHPUT spends this share of the mean of the last kThroughputWindow
  /// chunk throughputs.
  static constexpr double kThroughputSafetyFactor = 0.9;
  static constexpr std::size_t kThroughputWindow = 4;
  /// DYNAMIC switches to BOLA when buffer >= kSwitchToBolaS and BOLA's
  /// choice is at least THROUGHPUT's; back when buffer < kSwitchToThroughputS
  /// and BOLA's choice is lower (§3.4).
  static constexpr double kSwitchToBolaS = 12.0;
  static constexpr double kSwitchToThroughputS = 6.0;
  static constexpr double kAbandonGraceS = 0.5;
  static constexpr double kAbandonMultiplier = 1.8;

  explicit DashJsPlayerModel(DashJsConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "dashjs"; }
  void start(const ManifestView& view) override;
  [[nodiscard]] int max_concurrent_downloads() const override { return 2; }
  std::optional<DownloadRequest> next_request(const PlayerContext& ctx) override;
  bool should_abandon(const ProgressSample& sample, const PlayerContext& ctx) override;
  void on_chunk_complete(const ChunkCompletion& completion,
                         const PlayerContext& ctx) override;
  /// Reports the video-pipeline estimate (each type has its own).
  [[nodiscard]] double bandwidth_estimate_kbps() const override;
  /// Each pipeline's own fetch target (fetch_target_s).
  [[nodiscard]] double idle_floor_s(MediaType type) const override;
  [[nodiscard]] double estimate_kbps(MediaType type) const;

  /// Current ABR state of one pipeline (for tests).
  enum class RuleState { kThroughput, kBola };
  [[nodiscard]] RuleState rule_state(MediaType type) const {
    return pipeline(type).state;
  }
  [[nodiscard]] std::size_t current_index(MediaType type) const {
    return pipeline(type).current;
  }

 private:
  struct Pipeline {
    std::vector<std::string> track_ids;  ///< ascending declared bitrate
    std::vector<double> bitrates_kbps;
    WindowThroughputEstimator estimator{kThroughputWindow, 0.0};
    std::unique_ptr<Bola> bola;
    RuleState state = RuleState::kThroughput;
    std::size_t current = 0;
    // In-flight chunk tracking for the abandonment rule.
    double inflight_expected_kbps = 0.0;
    double inflight_elapsed_s = 0.0;
    std::int64_t inflight_bytes = 0;
  };

  [[nodiscard]] Pipeline& pipeline(MediaType type) {
    return type == MediaType::kAudio ? audio_ : video_;
  }
  [[nodiscard]] const Pipeline& pipeline(MediaType type) const {
    return type == MediaType::kAudio ? audio_ : video_;
  }

  /// The buffer level at which `p` stops fetching: kTopQualityBufferS at
  /// the top rung, kStableBufferS below it.
  [[nodiscard]] double fetch_target_s(const Pipeline& p) const;

  /// Run the DYNAMIC rule for one pipeline; updates state and returns the
  /// chosen track index.
  std::size_t adapt(Pipeline& p, double buffer_s);

  DashJsConfig config_;
  Pipeline audio_;
  Pipeline video_;
  double chunk_duration_s_ = 4.0;
};

}  // namespace demuxabr
