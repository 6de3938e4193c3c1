// §4.1 different-servers scenario: audio and video ride separate network
// paths. Per-track bandwidth declarations let a per-path-aware client avoid
// over-committing the weaker path; an aggregate-only client cannot.
#include <gtest/gtest.h>

#include <set>

#include "core/coordinated_player.h"
#include "experiments/scenarios.h"

namespace demuxabr {
namespace {

namespace ex = demuxabr::experiments;

ex::ExperimentSetup narrow_audio_path_setup() {
  // Wide video path (1.5 Mbps), narrow audio path (180 kbps): only A1
  // (128 kbps) is sustainable on the audio side.
  return ex::split_path_dash(BandwidthTrace::constant(1500.0),
                             BandwidthTrace::constant(180.0), "split");
}

TEST(SplitPaths, PerPathPlayerRespectsWeakAudioPath) {
  auto setup = narrow_audio_path_setup();
  CoordinatedConfig config;
  config.per_path_estimation = true;
  CoordinatedPlayer player(config);
  const SessionLog log = ex::run(setup, player);
  ASSERT_TRUE(log.completed);
  EXPECT_EQ(log.stall_count(), 0u);
  // Audio never exceeds A1 — the only rendition the 180 kbps path carries.
  std::set<std::string> audio(log.audio_selection.begin(), log.audio_selection.end());
  EXPECT_EQ(audio.size(), 1u);
  EXPECT_TRUE(audio.count("A1"));
}

TEST(SplitPaths, AggregateOnlyPlayerUnderperformsOnAsymmetricPaths) {
  // The aggregate (serial, single-pipe) player survives the asymmetric
  // topology only because its duration-weighted estimate collapses toward
  // the slow audio path — leaving the wide video path mostly idle. The
  // per-path player extracts the video path's capacity.
  auto setup = narrow_audio_path_setup();
  CoordinatedPlayer aggregate_player;  // aggregate estimation (default)
  const QoeReport aggregate_qoe = compute_qoe(ex::run(setup, aggregate_player));
  // Aggregate estimate is far below the 1.68 Mbps sum of the paths.
  EXPECT_LT(aggregate_player.bandwidth_estimate_kbps(), 0.7 * (1500.0 + 180.0));

  CoordinatedConfig config;
  config.per_path_estimation = true;
  CoordinatedPlayer per_path_player(config);
  const QoeReport per_path_qoe = compute_qoe(ex::run(setup, per_path_player));
  EXPECT_GT(per_path_qoe.avg_video_kbps, aggregate_qoe.avg_video_kbps);
}

TEST(SplitPaths, PerPathEstimatesConverge) {
  auto setup = narrow_audio_path_setup();
  CoordinatedConfig config;
  config.per_path_estimation = true;
  CoordinatedPlayer player(config);
  (void)ex::run(setup, player);
  EXPECT_NEAR(player.path_estimate_kbps(MediaType::kVideo), 1500.0, 300.0);
  EXPECT_NEAR(player.path_estimate_kbps(MediaType::kAudio), 180.0, 60.0);
}

TEST(SplitPaths, SymmetricPathsBehaveLikeShared) {
  // Both paths ample: per-path mode should reach the same quality region as
  // the shared-path configuration.
  auto setup = ex::split_path_dash(BandwidthTrace::constant(2000.0),
                                   BandwidthTrace::constant(2000.0), "sym");
  CoordinatedConfig config;
  config.per_path_estimation = true;
  CoordinatedPlayer player(config);
  const SessionLog log = ex::run(setup, player);
  ASSERT_TRUE(log.completed);
  EXPECT_EQ(log.stall_count(), 0u);
  const QoeReport qoe = compute_qoe(log);
  // Ramps through the staircase (hold time between up-switches), settling
  // at V4+A3: a healthy high-quality region.
  EXPECT_GT(qoe.avg_video_kbps, 550.0);
  EXPECT_GT(qoe.avg_audio_kbps, 190.0);
  EXPECT_EQ(log.video_selection.back(), "V4");
}

TEST(SplitPaths, PerPathModeHarmlessOnSharedBottleneck) {
  // On a genuinely shared link, per-path mode still works (each estimator
  // sees its own flows' share; the sum approximates the pipe).
  auto setup = ex::bestpractice_dash(BandwidthTrace::constant(900.0), "shared");
  CoordinatedConfig config;
  config.per_path_estimation = true;
  CoordinatedPlayer player(config);
  const SessionLog log = ex::run(setup, player);
  EXPECT_TRUE(log.completed);
  EXPECT_EQ(log.stall_count(), 0u);
}

TEST(SplitPaths, VideoPathIsTheBottleneck) {
  // Narrow video path: video must stay low while audio can be rich.
  auto setup = ex::split_path_dash(BandwidthTrace::constant(300.0),
                                   BandwidthTrace::constant(800.0), "narrow-video");
  CoordinatedConfig config;
  config.per_path_estimation = true;
  CoordinatedPlayer player(config);
  const SessionLog log = ex::run(setup, player);
  ASSERT_TRUE(log.completed);
  EXPECT_EQ(log.stall_count(), 0u);
  const QoeReport qoe = compute_qoe(log);
  EXPECT_LE(qoe.avg_video_kbps, 260.0);  // V1/V2 territory
}

}  // namespace
}  // namespace demuxabr
