// Muxed-mode baseline player (Fig 1, left side): the server stores M x N
// combined tracks and the player downloads one combined chunk per position.
//
// Joint selection is trivially built in — a variant IS a combination — and
// the audio/video buffers can never diverge. The §1 trade-off is on the
// server side: M x N storage and poorer CDN cache reuse (httpsim/workload).
// This model provides the QoE-side baseline the demuxed players are
// implicitly compared against.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/joint_abr.h"
#include "players/estimators.h"
#include "sim/player.h"

namespace demuxabr {

class MuxedPlayer : public PlayerAdapter {
 public:
  /// Fetching stops while the video buffer holds this much.
  static constexpr double kBufferTargetS = 30.0;

  [[nodiscard]] std::string name() const override { return "muxed"; }
  void start(const ManifestView& view) override;
  [[nodiscard]] int max_concurrent_downloads() const override { return 1; }
  std::optional<DownloadRequest> next_request(const PlayerContext& ctx) override;
  void on_progress(const ProgressSample& sample) override;
  [[nodiscard]] double bandwidth_estimate_kbps() const override;
  /// Gates on video only: kBufferTargetS for video, none for audio.
  [[nodiscard]] double idle_floor_s(MediaType type) const override {
    return type == MediaType::kVideo ? kBufferTargetS
                                     : -std::numeric_limits<double>::infinity();
  }

  [[nodiscard]] const std::vector<ComboView>& variants() const;

 private:
  AggregateThroughputEstimator estimator_;
  std::unique_ptr<JointAbrController> abr_;
};

}  // namespace demuxabr
