#include "players/exo_legacy.h"

#include "players/exoplayer.h"

#include <gtest/gtest.h>

#include <set>

#include "experiments/scenarios.h"
#include "manifest/builder.h"
#include "media/content.h"

namespace demuxabr {
namespace {

namespace ex = demuxabr::experiments;

TEST(ExoLegacy, PinsFirstAudioTrackUnderDash) {
  const Content content = make_drama_content();
  ExoLegacyPlayerModel player;
  player.start(view_from_mpd(build_dash_mpd(content)));
  EXPECT_EQ(player.fixed_audio_id(), "A1");
}

TEST(ExoLegacy, FixedAudioIndexIsConfigurable) {
  const Content content = make_drama_content();
  ExoLegacyConfig config;
  config.fixed_audio_index = 2;
  ExoLegacyPlayerModel player(config);
  player.start(view_from_mpd(build_dash_mpd(content)));
  EXPECT_EQ(player.fixed_audio_id(), "A3");
}

TEST(ExoLegacy, NeverAdaptsAudioInASession) {
  // §3.2: "selected a fixed audio track and used it throughout the session
  // without any audio rate adaptation" — on any trace.
  for (const auto& named : ex::comparison_traces()) {
    auto setup = ex::plain_dash(named.trace, named.name);
    ExoLegacyPlayerModel player;
    const SessionLog log = ex::run(setup, player);
    ASSERT_TRUE(log.completed) << named.name;
    std::set<std::string> audio(log.audio_selection.begin(), log.audio_selection.end());
    EXPECT_EQ(audio.size(), 1u) << named.name;
    EXPECT_TRUE(audio.count("A1")) << named.name;
  }
}

TEST(ExoLegacy, StillAdaptsVideo) {
  auto setup = ex::plain_dash(ex::varying_600_trace(), "legacy");
  ExoLegacyPlayerModel player;
  const SessionLog log = ex::run(setup, player);
  std::set<std::string> video(log.video_selection.begin(), log.video_selection.end());
  EXPECT_GE(video.size(), 2u);
}

TEST(ExoLegacy, HighAudioPinWastesBandwidthOnPoorLinks) {
  // Pinned A3 (384 kbps) on a 600 kbps-average link: the v2.10 joint model
  // with the same manifest reaches better video (it can drop audio).
  auto setup = ex::plain_dash(ex::varying_600_trace(), "legacy-a3");
  ExoLegacyConfig config;
  config.fixed_audio_index = 2;  // pin A3
  ExoLegacyPlayerModel legacy(config);
  const QoeReport legacy_qoe = compute_qoe(ex::run(setup, legacy));

  ExoPlayerModel modern;
  const QoeReport modern_qoe = compute_qoe(ex::run(setup, modern));

  // Legacy burns 384 kbps on audio unconditionally; the joint model spends
  // the link where it helps and ends up with the better overall QoE.
  EXPECT_DOUBLE_EQ(legacy_qoe.avg_audio_kbps, 384.0);
  EXPECT_GE(modern_qoe.qoe_score, legacy_qoe.qoe_score);
}

TEST(ExoLegacy, HlsVideoPricedByVariantAggregates) {
  const Content content = make_drama_content();
  ExoLegacyPlayerModel player;
  player.start(view_from_hls(build_hsub_master(content), nullptr));
  // At an estimate of ~600 kbps (0.75 -> 450 budget), the overestimated V2
  // (395 kbps aggregate) is the ceiling, like the v2.10 model.
  PlayerContext ctx;
  ctx.total_chunks = 75;
  const auto request = player.next_request(ctx);
  ASSERT_TRUE(request.has_value());
}

TEST(ExoLegacy, ChunkLevelSyncHolds) {
  auto setup = ex::plain_dash(BandwidthTrace::constant(1000.0), "legacy-sync");
  ExoLegacyPlayerModel player;
  const SessionLog log = ex::run(setup, player);
  // Downloads alternate: positions never drift more than one chunk apart.
  int next_audio = 0;
  int next_video = 0;
  for (const DownloadRecord& d : log.downloads) {
    (d.type == MediaType::kAudio ? next_audio : next_video) += 1;
    EXPECT_LE(std::abs(next_audio - next_video), 1);
  }
}

}  // namespace
}  // namespace demuxabr
