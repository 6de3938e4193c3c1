#include "sim/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "media/ladder.h"

namespace demuxabr {
namespace {

/// The Table 1 ladder the hand-built logs record from. Static: a log
/// compares TrackInfo addresses while it records.
const BitrateLadder& drama_ladder() {
  static const BitrateLadder ladder = youtube_drama_ladder();
  return ladder;
}

/// A 16 s, 4-chunk session that downloads chunk i's `video[i]` and
/// `audio[i]` in order, through the recording calls a session makes.
SessionLog record_log(const std::vector<std::string>& video = {"V1", "V1", "V2", "V2"},
                      const std::vector<std::string>& audio = {"A1", "A2", "A2", "A2"},
                      bool minimal = false) {
  SessionLog log;
  log.player_name = "test";
  log.content_duration_s = 16.0;
  log.chunk_duration_s = 4.0;
  log.begin(4, minimal);
  log.startup_delay_s = 1.0;
  log.end_time_s = 20.0;
  log.completed = video.size() == 4 && audio.size() == 4;
  for (std::size_t i = 0; i < video.size(); ++i) {
    const int chunk = static_cast<int>(i);
    const double t = 4.0 * chunk;
    log.record_download(*drama_ladder().find(video[i]), chunk, 50'000, t, t + 1.0);
    log.record_download(*drama_ladder().find(audio[i]), chunk, 8'000, t, t + 1.0);
  }
  return log;
}

/// record_log() with one 2.5 s stall.
SessionLog make_log() {
  SessionLog log = record_log();
  log.record_stall(5.0, 7.5);
  return log;
}

TEST(SessionLogHelpers, TotalStall) {
  SessionLog log = make_log();
  log.record_stall(10.0, 11.0);
  EXPECT_DOUBLE_EQ(log.total_stall_s(), 3.5);
  EXPECT_EQ(log.stall_count(), 2u);
  EXPECT_EQ(log.stalls.size(), 2u);
}

TEST(SessionLogHelpers, CombinationLabelsFirstUseOrder) {
  const SessionLog log = make_log();
  const auto labels = log.selected_combination_labels();
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], "V1+A1");
  EXPECT_EQ(labels[1], "V1+A2");
  EXPECT_EQ(labels[2], "V2+A2");
}

TEST(SessionLogHelpers, TotalDownloadedBytes) {
  SessionLog log;
  log.begin(2, false);
  const TrackInfo& v1 = *drama_ladder().find("V1");
  log.record_download(v1, 0, 100, 0.0, 1.0);
  log.record_download(v1, 1, 250, 1.0, 2.0);
  EXPECT_EQ(log.total_downloaded_bytes(), 350);
  EXPECT_EQ(log.download_count(), 2u);
  ASSERT_EQ(log.downloads.size(), 2u);
  EXPECT_EQ(log.downloads[1].track_id, "V1");
  EXPECT_EQ(log.downloads[1].chunk_index, 1);
  EXPECT_EQ(log.downloads[1].bytes, 250);
}

TEST(SessionLogHelpers, AbandonedDownloadsAreWasted) {
  SessionLog log = make_log();
  DownloadRecord cancelled;
  cancelled.track_id = "V3";
  cancelled.bytes = 4'000;
  log.record_abandoned(cancelled);
  cancelled.bytes = 500;
  log.record_abandoned(cancelled);
  EXPECT_EQ(log.wasted_bytes(), 4'500);
  EXPECT_EQ(log.abandoned_count(), 2u);
  EXPECT_EQ(log.abandoned.size(), 2u);
  // Abandoned bytes are not downloaded bytes.
  EXPECT_EQ(log.total_downloaded_bytes(), 4 * (50'000 + 8'000));
}

// The recording calls fold the same totals whether or not the log keeps its
// vectors, so every count, sum and QoE term agrees between the two modes.
TEST(SessionLogHelpers, MinimalLogFoldsTheSameTotals) {
  const std::vector<std::string> video = {"V1", "V3", "V3"};  // chunk 3 unfilled
  const std::vector<std::string> audio = {"A1", "A1", "A2"};
  SessionLog full = record_log(video, audio, false);
  SessionLog minimal = record_log(video, audio, true);
  for (SessionLog* log : {&full, &minimal}) {
    log->record_stall(5.0, 7.5);
    DownloadRecord cancelled;
    cancelled.bytes = 300;
    log->record_abandoned(cancelled);
  }
  EXPECT_TRUE(minimal.minimal);
  EXPECT_TRUE(minimal.downloads.empty());
  EXPECT_TRUE(minimal.abandoned.empty());
  EXPECT_TRUE(minimal.stalls.empty());
  EXPECT_TRUE(minimal.video_selection.empty());
  EXPECT_TRUE(minimal.audio_selection.empty());
  EXPECT_EQ(full.video_selection.size(), 4u);
  EXPECT_EQ(full.video_selection[3], "");

  EXPECT_EQ(minimal.total_stall_s(), full.total_stall_s());
  EXPECT_EQ(minimal.stall_count(), full.stall_count());
  EXPECT_EQ(minimal.total_downloaded_bytes(), full.total_downloaded_bytes());
  EXPECT_EQ(minimal.wasted_bytes(), full.wasted_bytes());
  EXPECT_EQ(minimal.download_count(), full.download_count());
  EXPECT_EQ(minimal.abandoned_count(), full.abandoned_count());

  const QoeReport a = compute_qoe(full);
  const QoeReport b = compute_qoe(minimal);
  EXPECT_EQ(a.avg_video_kbps, b.avg_video_kbps);
  EXPECT_EQ(a.avg_audio_kbps, b.avg_audio_kbps);
  EXPECT_EQ(a.video_switches, b.video_switches);
  EXPECT_EQ(a.audio_switches, b.audio_switches);
  EXPECT_EQ(a.qoe_score, b.qoe_score);
  // The per-slot combo count needs the slots.
  EXPECT_EQ(a.combo_switches, 3);
  EXPECT_EQ(b.combo_switches, 0);
}

TEST(DownloadRecord, ThroughputComputation) {
  DownloadRecord d;
  d.bytes = 125000;  // 1,000,000 bits
  d.start_t = 1.0;
  d.end_t = 2.0;
  EXPECT_DOUBLE_EQ(d.throughput_kbps(), 1000.0);
  d.end_t = 1.0;  // degenerate
  EXPECT_DOUBLE_EQ(d.throughput_kbps(), 0.0);
}

TEST(Qoe, AverageBitratesAreChunkWeighted) {
  const SessionLog log = make_log();
  const QoeReport report = compute_qoe(log);
  // V1=111 x2, V2=246 x2 -> 178.5; A1=128, A2=196 x3 -> 179.
  EXPECT_NEAR(report.avg_video_kbps, (111.0 * 2 + 246.0 * 2) / 4.0, 1e-9);
  EXPECT_NEAR(report.avg_audio_kbps, (128.0 + 196.0 * 3) / 4.0, 1e-9);
}

TEST(Qoe, CountsSwitchesPerComponent) {
  const SessionLog log = make_log();
  const QoeReport report = compute_qoe(log);
  EXPECT_EQ(report.video_switches, 1);
  EXPECT_EQ(report.audio_switches, 1);
  EXPECT_EQ(report.combo_switches, 2);
}

TEST(Qoe, StallAccounting) {
  const SessionLog log = make_log();
  const QoeReport report = compute_qoe(log);
  EXPECT_EQ(report.stall_count, 1);
  EXPECT_DOUBLE_EQ(report.total_stall_s, 2.5);
  EXPECT_DOUBLE_EQ(report.startup_delay_s, 1.0);
}

TEST(Qoe, OffManifestCounting) {
  const SessionLog log = make_log();
  const auto allowed = curated_subset(youtube_drama_ladder());
  // Allowed: V1+A1, V2+A1, V3+A2, ... -> V1+A2 and V2+A2 are violations.
  const QoeReport report = compute_qoe(log, &allowed);
  EXPECT_EQ(report.off_manifest_chunks, 3);
}

TEST(Qoe, OffManifestSkipsUndownloadedChunks) {
  // Chunks 2 and 3 were never downloaded: their empty slots are no
  // combination at all, so only chunk 1's V1+A2 is off-manifest.
  const SessionLog log = record_log({"V1", "V1"}, {"A1", "A2"});
  const auto allowed = curated_subset(youtube_drama_ladder());
  EXPECT_EQ(compute_qoe(log, &allowed).off_manifest_chunks, 1);
}

TEST(Qoe, PartialSessionPaysOneSwitchAtTheFillBoundary) {
  // V1 V2 _ _ / A1 A1 _ _: each type stops short of the last slot and pays
  // one switch there, costing its last bitrate (V2 = 246, A1 = 128).
  const SessionLog log = record_log({"V1", "V2"}, {"A1", "A1"});
  const QoeReport report = compute_qoe(log);
  EXPECT_EQ(report.video_switches, 2);
  EXPECT_EQ(report.audio_switches, 1);
  EXPECT_EQ(report.combo_switches, 2);
  EXPECT_DOUBLE_EQ(report.avg_video_kbps, (111.0 + 246.0) / 4.0);
  const double utility = 111.0 + 246.0 + 2 * 128.0;
  const double switch_cost = (246.0 - 111.0) + 246.0 + 128.0;
  EXPECT_DOUBLE_EQ(report.qoe_score, (utility - 1000.0 * 1.0 - switch_cost) / 4.0);
}

TEST(Qoe, RepeatDownloadsKeepAveragesOnTheLadder) {
  // A backward seek re-downloads chunk 0: three video and three audio
  // downloads over two slots. The averages divide by the downloads, so they
  // stay within the ladder.
  SessionLog log;
  log.begin(2, false);
  const char* video[] = {"V2", "V2", "V2"};
  const char* audio[] = {"A1", "A1", "A1"};
  const int chunks[] = {0, 1, 0};
  for (int i = 0; i < 3; ++i) {
    log.record_download(*drama_ladder().find(video[i]), chunks[i], 1, 0.0, 1.0);
    log.record_download(*drama_ladder().find(audio[i]), chunks[i], 1, 0.0, 1.0);
  }
  const QoeReport report = compute_qoe(log);
  EXPECT_DOUBLE_EQ(report.avg_video_kbps, 246.0);
  EXPECT_DOUBLE_EQ(report.avg_audio_kbps, 128.0);
  EXPECT_EQ(report.video_switches, 0);
  EXPECT_DOUBLE_EQ(report.qoe_score, (3 * 246.0 + 3 * 128.0) / 3.0);
}

TEST(Qoe, NoAllowedListMeansZeroViolations) {
  const QoeReport report = compute_qoe(make_log(), nullptr);
  EXPECT_EQ(report.off_manifest_chunks, 0);
}

TEST(Qoe, StallsReduceScore) {
  const SessionLog clean = record_log();
  const SessionLog stalled = make_log();
  EXPECT_GT(compute_qoe(clean).qoe_score, compute_qoe(stalled).qoe_score);
}

TEST(Qoe, HigherBitrateRaisesScore) {
  const SessionLog low = record_log();
  const SessionLog high = record_log({"V4", "V4", "V4", "V4"});
  EXPECT_GT(compute_qoe(high).qoe_score, compute_qoe(low).qoe_score);
}

TEST(Qoe, EmptyLogIsAllZero) {
  SessionLog log;
  const QoeReport report = compute_qoe(log);
  EXPECT_DOUBLE_EQ(report.avg_video_kbps, 0.0);
  EXPECT_EQ(report.video_switches, 0);
  EXPECT_DOUBLE_EQ(report.qoe_score, 0.0);
}

TEST(SelectionCsv, RendersRows) {
  const std::string csv = selection_csv(make_log());
  EXPECT_NE(csv.find("chunk,video,audio,combo"), std::string::npos);
  EXPECT_NE(csv.find("0,V1,A1,V1+A1"), std::string::npos);
  EXPECT_NE(csv.find("3,V2,A2,V2+A2"), std::string::npos);
}

TEST(Summarize, MentionsKeyNumbers) {
  const SessionLog log = make_log();
  const QoeReport report = compute_qoe(log);
  const std::string text = summarize(log, report);
  EXPECT_NE(text.find("player=test"), std::string::npos);
  EXPECT_NE(text.find("stalls=1"), std::string::npos);
  EXPECT_NE(text.find("V1+A1"), std::string::npos);
}

}  // namespace
}  // namespace demuxabr
