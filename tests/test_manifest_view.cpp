#include "manifest/view.h"

#include <gtest/gtest.h>

#include "manifest/builder.h"
#include "media/content.h"

namespace demuxabr {
namespace {

class ViewTest : public ::testing::Test {
 protected:
  Content content_ = make_drama_content();
};

TEST_F(ViewTest, DashViewKnowsPerTrackBitrates) {
  const ManifestView view = view_from_mpd(build_dash_mpd(content_));
  EXPECT_EQ(view.protocol, Protocol::kDash);
  EXPECT_FALSE(view.has_combination_list);
  ASSERT_EQ(view.video_tracks.size(), 6u);
  ASSERT_EQ(view.audio_tracks.size(), 3u);
  for (const auto* tracks : {&view.video_tracks, &view.audio_tracks}) {
    for (const TrackView& t : *tracks) EXPECT_TRUE(t.bitrate_known) << t.id;
  }
  EXPECT_DOUBLE_EQ(view.find_track("V3")->declared_kbps, 473.0);
  EXPECT_DOUBLE_EQ(view.find_track("A2")->declared_kbps, 196.0);
}

TEST_F(ViewTest, DashViewDerivesTimeline) {
  const ManifestView view = view_from_mpd(build_dash_mpd(content_));
  EXPECT_EQ(view.total_chunks, 75);
  EXPECT_NEAR(view.chunk_duration_s, 4.0, 1e-9);
}

TEST_F(ViewTest, EnhancedDashViewCarriesCombinations) {
  DashBuildOptions options;
  options.allowed_combinations = curated_subset(content_.ladder());
  const ManifestView view = view_from_mpd(build_dash_mpd(content_, options));
  EXPECT_TRUE(view.has_combination_list);
  ASSERT_EQ(view.combos.size(), 6u);
  EXPECT_EQ(view.combos[2].video_id, "V3");
  EXPECT_EQ(view.combos[2].audio_id, "A2");
  EXPECT_DOUBLE_EQ(view.combos[2].bandwidth_kbps, 473.0 + 196.0);
}

TEST_F(ViewTest, HlsTopLevelViewHidesAudioBitrates) {
  // The §3.2 root cause: HLS top-level manifests carry no per-track audio
  // bitrate, so a player cannot rank the renditions.
  const ManifestView view = view_from_hls(build_hsub_master(content_), nullptr);
  EXPECT_EQ(view.protocol, Protocol::kHls);
  EXPECT_TRUE(view.has_combination_list);
  for (const TrackView& t : view.audio_tracks) {
    EXPECT_FALSE(t.bitrate_known) << t.id;
  }
  for (const TrackView& t : view.video_tracks) {
    EXPECT_FALSE(t.bitrate_known) << t.id;
  }
}

TEST_F(ViewTest, HlsViewCombosMatchVariants) {
  const ManifestView view = view_from_hls(build_hsub_master(content_), nullptr);
  ASSERT_EQ(view.combos.size(), 6u);
  EXPECT_EQ(view.combos[0].label(), "V1+A1");
  EXPECT_EQ(view.combos[2].label(), "V3+A2");
  EXPECT_DOUBLE_EQ(view.combos[2].bandwidth_kbps, 840.0);
  EXPECT_DOUBLE_EQ(view.combos[2].avg_bandwidth_kbps, 558.0);
}

TEST_F(ViewTest, HlsViewPreservesRenditionOrder) {
  const ManifestView view =
      view_from_hls(build_hsub_master(content_, {"A3", "A2", "A1"}), nullptr);
  ASSERT_EQ(view.audio_tracks.size(), 3u);
  EXPECT_EQ(view.audio_tracks[0].id, "A3");  // ExoPlayer's pinned choice
  EXPECT_EQ(view.audio_tracks[2].id, "A1");
}

TEST_F(ViewTest, MediaPlaylistsUpgradeHlsView) {
  // §4.1: reading second-level playlists reveals per-track bitrates.
  HlsMediaOptions options;
  options.include_bitrate_tag = true;
  const auto playlists = build_all_media_playlists(content_, options);
  const ManifestView view = view_from_hls(build_hsub_master(content_), &playlists);
  for (const TrackView& t : view.audio_tracks) {
    EXPECT_TRUE(t.bitrate_known) << t.id;
  }
  EXPECT_NEAR(view.find_track("A3")->declared_kbps, 391.0, 5.0);  // peak
  EXPECT_NEAR(view.find_track("A3")->avg_kbps, 384.0, 5.0);
  EXPECT_EQ(view.total_chunks, 75);
  EXPECT_NEAR(view.chunk_duration_s, 4.0, 1e-9);
}

TEST_F(ViewTest, ByteRangePlaylistsAlsoUpgradeView) {
  HlsMediaOptions options;
  options.packaging = PackagingMode::kSingleFileByteRange;
  const auto playlists = build_all_media_playlists(content_, options);
  const ManifestView view = view_from_hls(build_hall_master(content_), &playlists);
  EXPECT_TRUE(view.find_track("V5")->bitrate_known);
  EXPECT_NEAR(view.find_track("V5")->avg_kbps, 1421.0, 1421.0 * 0.02);
}

TEST_F(ViewTest, CombosSortedAscending) {
  const ManifestView view = view_from_hls(build_hall_master(content_), nullptr);
  const auto sorted = view.combos_sorted();
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].bandwidth_kbps, sorted[i].bandwidth_kbps);
  }
}

TEST_F(ViewTest, FindTrackMissingReturnsNull) {
  const ManifestView view = view_from_mpd(build_dash_mpd(content_));
  EXPECT_EQ(view.find_track("Z9"), nullptr);
}

TEST_F(ViewTest, HlsViewVideoResolutionFromVariants) {
  const ManifestView view = view_from_hls(build_hsub_master(content_), nullptr);
  EXPECT_EQ(view.find_track("V6")->height, 1080);
  EXPECT_EQ(view.find_track("V6")->width, 1920);
}

}  // namespace
}  // namespace demuxabr
