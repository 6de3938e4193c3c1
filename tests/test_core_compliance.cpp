#include "core/compliance.h"

#include <gtest/gtest.h>

#include "media/content.h"

namespace demuxabr {
namespace {

SessionLog log_with(std::vector<std::string> video, std::vector<std::string> audio) {
  SessionLog log;
  log.video_selection = std::move(video);
  log.audio_selection = std::move(audio);
  return log;
}

TEST(Compliance, AllAllowedIsCompliant) {
  const auto allowed = curated_subset(youtube_drama_ladder());
  const SessionLog log = log_with({"V1", "V2", "V3"}, {"A1", "A1", "A2"});
  const ComplianceReport report = check_compliance(log, allowed);
  EXPECT_TRUE(report.compliant());
  EXPECT_EQ(report.total_chunks, 3);
}

TEST(Compliance, CountsViolationsAndLabels) {
  const auto allowed = curated_subset(youtube_drama_ladder());
  // V1+A3 and V2+A3 are not in H_sub; V1+A3 appears twice but is listed once.
  const SessionLog log =
      log_with({"V1", "V1", "V2", "V3"}, {"A3", "A3", "A3", "A2"});
  const ComplianceReport report = check_compliance(log, allowed);
  EXPECT_FALSE(report.compliant());
  EXPECT_EQ(report.total_chunks, 4);
  EXPECT_EQ(report.violating_chunks, 3);
  ASSERT_EQ(report.violating_labels.size(), 2u);
  EXPECT_EQ(report.violating_labels[0], "V1+A3");
  EXPECT_EQ(report.violating_labels[1], "V2+A3");
}

TEST(Compliance, SkipsNeverDownloadedChunks) {
  const auto allowed = curated_subset(youtube_drama_ladder());
  const SessionLog log = log_with({"V1", "", "V2"}, {"A1", "A1", ""});
  const ComplianceReport report = check_compliance(log, allowed);
  EXPECT_EQ(report.total_chunks, 1);
}

TEST(Compliance, EmptyLogIsTriviallyCompliant) {
  const auto allowed = curated_subset(youtube_drama_ladder());
  const ComplianceReport report = check_compliance(SessionLog{}, allowed);
  EXPECT_TRUE(report.compliant());
  EXPECT_EQ(report.total_chunks, 0);
}

TEST(EnhancedManifests, MpdCarriesStaircase) {
  const Content content = make_drama_content();
  CurationPolicy policy;
  policy.device.screen = DeviceProfile::Screen::kTv;  // full 6-video ladder
  const MpdDocument mpd = build_enhanced_mpd(content, policy);
  EXPECT_EQ(mpd.allowed_combinations.size(), 8u);
  // Round-trip through XML keeps the list.
  const auto reparsed = parse_mpd(serialize_mpd(mpd));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->allowed_combinations, mpd.allowed_combinations);
}

TEST(EnhancedManifests, CuratedHlsMasterNeverListsAllCombos) {
  const Content content = make_drama_content();
  CurationPolicy policy;
  const HlsMasterPlaylist master = build_curated_hls_master(content, policy);
  EXPECT_LT(master.variants.size(), 18u);  // never H_all
  EXPECT_GE(master.variants.size(), 6u);
  EXPECT_GT(master.variants.front().average_bandwidth_bps, 0);
}

TEST(EnhancedManifests, MediaPlaylistsCarryMandatoryBitrate) {
  const Content content = make_drama_content();
  const auto playlists = build_bestpractice_media_playlists(content);
  ASSERT_EQ(playlists.size(), 9u);
  for (const auto& [id, playlist] : playlists) {
    for (const HlsSegment& segment : playlist.segments) {
      EXPECT_GT(segment.bitrate_kbps, 0.0) << id;
    }
  }
}

TEST(EnhancedManifests, ByteRangePackagingAlsoSupported) {
  const Content content = make_drama_content();
  const auto playlists =
      build_bestpractice_media_playlists(content, PackagingMode::kSingleFileByteRange);
  for (const auto& [id, playlist] : playlists) {
    EXPECT_TRUE(playlist.segments.front().has_byterange()) << id;
  }
}

}  // namespace
}  // namespace demuxabr
