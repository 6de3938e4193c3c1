// Shaka Player v2.5 behavioural model (§3.3).
//
// Bandwidth estimation: per-interval (0.125 s) throughput samples from each
// flow separately, discarded unless >= 16 KB moved in the interval, fed to a
// dual half-life EWMA with a 500 kbps default — so (a) concurrent audio and
// video downloads over a shared bottleneck halve every accepted sample, and
// (b) at moderate link rates *no* sample passes the filter and the estimate
// stays pinned at the default (Fig 4(a)); at time-varying rates only the
// high phase passes, overestimating the average (Fig 4(b)).
//
// Selection: simple rate-based — the combination with the highest declared
// bandwidth not exceeding the estimate, re-evaluated every chunk with no
// hysteresis, which makes selections flutter when many combinations have
// nearby bandwidth requirements (§3.3's fluctuation finding).
//
// Under DASH (no combination list), the model builds ALL |V| x |A|
// combinations from per-track declared bitrates, as the real player does
// when parsing an MPD.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "players/estimators.h"
#include "sim/player.h"

namespace demuxabr {

struct ShakaConfig {
  ShakaEstimatorConfig estimator{};
};

class ShakaPlayerModel : public PlayerAdapter {
 public:
  /// Shaka's default bufferingGoal: both pipelines fill to it.
  static constexpr double kBufferingGoalS = 10.0;

  explicit ShakaPlayerModel(ShakaConfig config = {})
      : config_(config), estimator_(config.estimator) {}

  [[nodiscard]] std::string name() const override;
  void start(const ManifestView& view) override;
  [[nodiscard]] int max_concurrent_downloads() const override { return 2; }
  std::optional<DownloadRequest> next_request(const PlayerContext& ctx) override;
  void on_progress(const ProgressSample& sample) override;
  [[nodiscard]] double bandwidth_estimate_kbps() const override;
  [[nodiscard]] double idle_floor_s(MediaType type) const override {
    (void)type;
    return kBufferingGoalS;
  }

  [[nodiscard]] const std::vector<ComboView>& combinations() const { return combos_; }
  /// The rate-based choice at a given estimate (exposed for the §3.3
  /// fluctuation analysis and tests).
  [[nodiscard]] std::size_t select_for_estimate(double estimate_kbps) const;

 private:
  ShakaConfig config_;
  ShakaBandwidthEstimator estimator_;
  Protocol protocol_ = Protocol::kDash;
  std::vector<ComboView> combos_;  ///< ascending bandwidth
};

}  // namespace demuxabr
