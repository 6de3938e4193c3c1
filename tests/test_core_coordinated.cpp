#include "core/coordinated_player.h"

#include <gtest/gtest.h>

#include "core/compliance.h"
#include "experiments/scenarios.h"
#include "manifest/builder.h"
#include "media/content.h"
#include "sim/session.h"

namespace demuxabr {
namespace {

namespace ex = demuxabr::experiments;

TEST(Coordinated, UsesManifestCombinationsWhenPresent) {
  const Content content = make_drama_content();
  CoordinatedPlayer player;
  player.start(view_from_hls(build_hsub_master(content), nullptr));
  EXPECT_EQ(player.allowed().size(), 6u);
  EXPECT_EQ(player.allowed()[0].label(), "V1+A1");
}

TEST(Coordinated, CuratesClientSideOnPlainDash) {
  const Content content = make_drama_content();
  // Default device profile is a phone: 1080p V6 is excluded, leaving a
  // 5-video staircase of 7 combinations.
  CoordinatedPlayer player;
  player.start(view_from_mpd(build_dash_mpd(content)));
  EXPECT_EQ(player.allowed().size(), 7u);
  EXPECT_EQ(player.allowed().front().label(), "V1+A1");
  EXPECT_EQ(player.allowed().back().label(), "V5+A3");
}

TEST(Coordinated, TvDeviceUsesFullLadderInFallback) {
  const Content content = make_drama_content();
  CoordinatedConfig config;
  config.fallback_policy.device.screen = DeviceProfile::Screen::kTv;
  CoordinatedPlayer player(config);
  player.start(view_from_mpd(build_dash_mpd(content)));
  // 6 video + 3 audio rungs -> 8-combination staircase up to V6+A3.
  EXPECT_EQ(player.allowed().size(), 8u);
  EXPECT_EQ(player.allowed().back().label(), "V6+A3");
}

TEST(Coordinated, AlwaysAdaptsAudio) {
  // Unlike ExoPlayer-HLS, high bandwidth must reach the high audio rungs.
  auto setup = ex::bestpractice_hls(BandwidthTrace::constant(5000.0), "t");
  CoordinatedPlayer player;
  const SessionLog log = ex::run(setup, player);
  ASSERT_TRUE(log.completed);
  EXPECT_EQ(log.audio_selection.back(), "A3");
}

TEST(Coordinated, NeverSelectsOffManifestPairs) {
  for (const auto& named : ex::comparison_traces()) {
    auto setup = ex::bestpractice_dash(named.trace, named.name);
    CoordinatedPlayer player;
    const SessionLog log = ex::run(setup, player);
    const ComplianceReport report = check_compliance(log, setup.allowed);
    EXPECT_TRUE(report.compliant())
        << named.name << ": " << report.violating_chunks << " violations";
  }
}

TEST(Coordinated, KeepsBuffersBalanced) {
  auto setup = ex::bestpractice_dash(ex::varying_600_trace(), "t");
  CoordinatedPlayer player;
  const SessionLog log = ex::run(setup, player);
  ASSERT_TRUE(log.completed);
  // Compare buffer levels on a common grid: imbalance bounded by ~1 chunk.
  for (const auto& point : log.video_buffer_s.points()) {
    const double audio = log.audio_buffer_s.value_at(point.t);
    EXPECT_LE(std::abs(point.value - audio), 4.0 + 0.5) << "t=" << point.t;
  }
}

TEST(Coordinated, NoStallsOnStableLink) {
  auto setup = ex::bestpractice_dash(BandwidthTrace::constant(900.0), "t");
  CoordinatedPlayer player;
  const SessionLog log = ex::run(setup, player);
  EXPECT_TRUE(log.completed);
  EXPECT_EQ(log.stall_count(), 0u);
}

TEST(Coordinated, FewSwitchesOnVaryingLink) {
  auto setup = ex::bestpractice_dash(ex::varying_600_trace(), "t");
  CoordinatedPlayer player;
  const SessionLog log = ex::run(setup, player);
  const QoeReport report = compute_qoe(log);
  EXPECT_LE(report.combo_switches, 6);
}

TEST(Coordinated, SharedBottleneckEstimateIsNotHalved) {
  // The aggregate estimator must see ~the full link rate even though audio
  // and video download concurrently at startup.
  auto setup = ex::bestpractice_dash(BandwidthTrace::constant(1000.0), "t");
  CoordinatedPlayer player;
  const SessionLog log = ex::run(setup, player);
  // After convergence, the logged estimate approaches 1000, not 500.
  const double late_estimate = log.bandwidth_estimate_kbps.value_at(200.0);
  EXPECT_GT(late_estimate, 800.0);
}

TEST(Coordinated, ComboPinnedPerChunkPosition) {
  auto setup = ex::bestpractice_dash(
      BandwidthTrace::random_walk(300.0, 1500.0, 2.0, 300.0, 150.0, 3), "t");
  CoordinatedPlayer player;
  const SessionLog log = ex::run(setup, player);
  // Every played chunk's pair must be one of the allowed combinations even
  // though the controller switched mid-stream.
  for (std::size_t i = 0; i < log.video_selection.size(); ++i) {
    EXPECT_TRUE(contains_combination(setup.allowed, log.video_selection[i],
                                     log.audio_selection[i]))
        << "chunk " << i;
  }
}

TEST(Coordinated, HigherBandwidthNeverHurtsQuality) {
  double previous_video = 0.0;
  for (double kbps : {500.0, 1000.0, 2000.0, 4000.0}) {
    auto setup = ex::bestpractice_dash(BandwidthTrace::constant(kbps), "t");
    CoordinatedPlayer player;
    const SessionLog log = ex::run(setup, player);
    const QoeReport report = compute_qoe(log);
    EXPECT_GE(report.avg_video_kbps, previous_video - 1.0) << kbps;
    previous_video = report.avg_video_kbps;
  }
}

TEST(Coordinated, PolicyShapesFallbackCuration) {
  const Content content = make_drama_content();
  CoordinatedConfig music_config;
  music_config.fallback_policy.genre = ContentGenre::kMusic;
  CoordinatedPlayer music(music_config);
  music.start(view_from_mpd(build_dash_mpd(content)));
  CoordinatedConfig action_config;
  action_config.fallback_policy.genre = ContentGenre::kAction;
  CoordinatedPlayer action(action_config);
  action.start(view_from_mpd(build_dash_mpd(content)));
  // Music's lowest combination already uses a better audio rung.
  EXPECT_NE(music.allowed().front().audio_id, action.allowed().front().audio_id);
}

}  // namespace
}  // namespace demuxabr
