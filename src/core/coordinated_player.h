// CoordinatedPlayer: the §4 best-practice reference player.
//
// Assembles every client-side recommendation of the paper:
//   * audio rate adaptation (never a pinned audio track);
//   * selection restricted to the allowed combinations when the manifest
//     provides them (HLS variants / DASH §4.1 extension); when it does not,
//     a client-side curation policy builds a sensible subset from per-track
//     bitrates rather than adapting audio and video independently;
//   * joint A/V adaptation — either the damped rate controller
//     (JointAbrController) or the lookahead MPC controller (MpcJointAbr,
//     the paper's §5 future-work direction);
//   * aggregate bandwidth estimation that sums concurrent audio+video
//     progress, immune to the shared-bottleneck halving that defeats
//     Shaka's estimator; optionally per-path estimation for the §4.1
//     different-servers scenario, where per-component declared bitrates
//     gate which combinations each path can carry;
//   * chunk-level balanced prefetching (BalancedPrefetcher), with the
//     combination pinned per chunk position so played pairs always come
//     from the allowed list.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/allowed_combinations.h"
#include "core/balanced_prefetch.h"
#include "core/joint_abr.h"
#include "players/estimators.h"
#include "sim/player.h"

namespace demuxabr {

/// Prefetch scheduling mode — kIndependent exists for ablation benches: it
/// fills video to its target before touching audio, recreating the
/// unbalanced-buffer failure mode §3.4 documents.
enum class PrefetchMode { kBalanced, kIndependent };

/// Joint adaptation algorithm: damped rate control, lookahead MPC, or
/// estimate-free buffer-based (BBA) control — all over the same
/// allowed-combination ladder.
enum class AbrAlgorithm { kHysteresisRate, kMpc, kBufferBased };

struct CoordinatedConfig {
  AbrAlgorithm algorithm = AbrAlgorithm::kHysteresisRate;
  /// The rate controller's damping (kHysteresisRate only).
  JointAbrConfig abr{};
  PrefetchMode prefetch_mode = PrefetchMode::kBalanced;
  /// Client-side fallback curation when the manifest has no combination
  /// list (plain DASH).
  CurationPolicy fallback_policy{};
  /// §4.1 split-path mode: estimate audio and video throughput separately
  /// and only select combinations whose per-component declared bitrates fit
  /// their own path. Requires per-component information in the manifest
  /// (DASH per-track @bandwidth or HLS second-level playlists).
  bool per_path_estimation = false;
};

class CoordinatedPlayer : public PlayerAdapter {
 public:
  explicit CoordinatedPlayer(CoordinatedConfig config = {}) : config_(config) {}

  [[nodiscard]] std::string name() const override;
  void start(const ManifestView& view) override;
  /// Shared bottleneck: serial chunk-synchronized downloads (§4.2).
  /// Split paths: one pipeline per path, or the parallelism is wasted.
  [[nodiscard]] int max_concurrent_downloads() const override {
    return config_.per_path_estimation ? 2 : 1;
  }
  std::optional<DownloadRequest> next_request(const PlayerContext& ctx) override;
  void on_progress(const ProgressSample& sample) override;
  [[nodiscard]] double bandwidth_estimate_kbps() const override;
  /// Both prefetch modes stop fetching a type at buffer_target_s.
  [[nodiscard]] double idle_floor_s(MediaType type) const override {
    (void)type;
    return prefetcher_.config().buffer_target_s;
  }

  [[nodiscard]] const std::vector<ComboView>& allowed() const {
    return controller_->allowed();
  }
  [[nodiscard]] std::size_t current_combination_index() const {
    return controller_->current_index();
  }
  /// Per-path estimates (0 until samples arrive); meaningful when
  /// per_path_estimation is on.
  [[nodiscard]] double path_estimate_kbps(MediaType type) const;

 private:
  std::size_t decide(const PlayerContext& ctx);
  /// Highest allowed index whose per-component requirements fit the current
  /// per-path budgets (allowed.size()-1 when split-path mode is off or no
  /// component info / estimates are available).
  [[nodiscard]] std::size_t path_feasible_cap() const;

  CoordinatedConfig config_;
  AggregateThroughputEstimator estimator_;
  AggregateThroughputEstimator video_estimator_;
  AggregateThroughputEstimator audio_estimator_;
  BalancedPrefetcher prefetcher_;
  /// Built by start() over the allowed ladder.
  std::unique_ptr<JointController> controller_;
  double chunk_duration_s_ = 4.0;
  /// Combination pinned per chunk position: once either component of chunk k
  /// is requested, the other component uses the same combination — a switch
  /// can only happen at a chunk boundary, so every *played* (video, audio)
  /// pair is an allowed combination.
  std::map<int, std::size_t> combo_for_chunk_;
};

}  // namespace demuxabr
