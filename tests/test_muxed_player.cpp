// Muxed-mode streaming (Fig 1 baseline): engine muxed-request mechanics and
// the MuxedPlayer's QoE characteristics vs. the demuxed coordinated player.
#include <gtest/gtest.h>

#include <cmath>

#include "core/coordinated_player.h"
#include "core/muxed_player.h"
#include "experiments/scenarios.h"
#include "manifest/builder.h"
#include "sim/session.h"

namespace demuxabr {
namespace {

namespace ex = demuxabr::experiments;

SessionLog run_muxed(const BandwidthTrace& trace) {
  const Content content = make_drama_content();
  const ManifestView view = view_from_mpd(build_dash_mpd(content));
  MuxedPlayer player;
  const Network network = Network::shared(trace);
  return run_session(content, view, network, player);
}

TEST(MuxedPlayer, CompletesAndFillsBothSelections) {
  const SessionLog log = run_muxed(BandwidthTrace::constant(900.0));
  ASSERT_TRUE(log.completed);
  EXPECT_EQ(log.player_name, "muxed");
  for (std::size_t i = 0; i < log.video_selection.size(); ++i) {
    EXPECT_FALSE(log.video_selection[i].empty()) << i;
    EXPECT_FALSE(log.audio_selection[i].empty()) << i;
  }
}

TEST(MuxedPlayer, EveryChunkRecordedForBothTypes) {
  const SessionLog log = run_muxed(BandwidthTrace::constant(900.0));
  int audio = 0;
  int video = 0;
  for (const DownloadRecord& d : log.downloads) {
    (d.type == MediaType::kAudio ? audio : video) += 1;
  }
  EXPECT_EQ(audio, log.total_chunks);
  EXPECT_EQ(video, log.total_chunks);
  // Component records of one muxed fetch share the same interval.
  for (std::size_t i = 0; i + 1 < log.downloads.size(); i += 2) {
    EXPECT_DOUBLE_EQ(log.downloads[i].start_t, log.downloads[i + 1].start_t);
    EXPECT_DOUBLE_EQ(log.downloads[i].end_t, log.downloads[i + 1].end_t);
    EXPECT_EQ(log.downloads[i].chunk_index, log.downloads[i + 1].chunk_index);
  }
}

TEST(MuxedPlayer, BuffersNeverDiverge) {
  const SessionLog log = run_muxed(ex::varying_600_trace());
  ASSERT_TRUE(log.completed);
  for (const auto& point : log.video_buffer_s.points()) {
    const double audio = log.audio_buffer_s.value_at(point.t);
    EXPECT_NEAR(point.value, audio, 1e-6) << "t=" << point.t;
  }
}

TEST(MuxedPlayer, SelectionsAreAlwaysValidPairs) {
  const SessionLog log = run_muxed(BandwidthTrace::constant(700.0));
  const Content content = make_drama_content();
  // Muxed fetches are pairs by construction: chunk k's audio and video were
  // requested together.
  for (std::size_t i = 0; i < log.video_selection.size(); ++i) {
    EXPECT_NE(content.ladder().find(log.video_selection[i]), nullptr);
    EXPECT_NE(content.ladder().find(log.audio_selection[i]), nullptr);
  }
}

TEST(MuxedPlayer, RecreatesAllVariantsFromDash) {
  const Content content = make_drama_content();
  MuxedPlayer player;
  player.start(view_from_mpd(build_dash_mpd(content)));
  EXPECT_EQ(player.variants().size(), 18u);  // the M x N muxed catalog
}

TEST(MuxedPlayer, UsesManifestVariantsWhenListed) {
  const Content content = make_drama_content();
  MuxedPlayer player;
  player.start(view_from_hls(build_hsub_master(content), nullptr));
  EXPECT_EQ(player.variants().size(), 6u);
}

TEST(MuxedPlayer, NoStallsOnSteadyLink) {
  const SessionLog log = run_muxed(BandwidthTrace::constant(900.0));
  EXPECT_EQ(log.stall_count(), 0u);
  const QoeReport qoe = compute_qoe(log);
  EXPECT_GT(qoe.avg_video_kbps, 150.0);
}

TEST(MuxedPlayer, ComparableQoeToDemuxedCoordinated) {
  // Same ABR core, same trace: muxed and demuxed-coordinated should land in
  // the same QoE region (the paper's point is that demuxed mode saves
  // storage/caching *without* a client QoE penalty when handled right).
  const BandwidthTrace trace = BandwidthTrace::constant(900.0);
  const SessionLog muxed_log = run_muxed(trace);
  const QoeReport muxed_qoe = compute_qoe(muxed_log);

  auto setup = ex::bestpractice_dash(trace, "cmp");
  CoordinatedPlayer coordinated;
  const SessionLog demuxed_log = ex::run(setup, coordinated);
  const QoeReport demuxed_qoe = compute_qoe(demuxed_log);

  EXPECT_EQ(muxed_qoe.stall_count, 0);
  EXPECT_EQ(demuxed_qoe.stall_count, 0);
  EXPECT_NEAR(muxed_qoe.avg_video_kbps + muxed_qoe.avg_audio_kbps,
              demuxed_qoe.avg_video_kbps + demuxed_qoe.avg_audio_kbps, 250.0);
}

TEST(MuxedPlayer, ProgressSamplesCoverCombinedBytes) {
  const Content content = make_drama_content();
  const ManifestView view = view_from_mpd(build_dash_mpd(content));
  MuxedPlayer player;
  const Network network = Network::shared(BandwidthTrace::constant(1200.0));
  const SessionLog log = run_session(content, view, network, player);
  // Sum of per-component download record bytes equals total content fetched.
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < log.video_selection.size(); ++i) {
    expected += content.chunk(log.video_selection[i], static_cast<int>(i)).size_bytes;
    expected += content.chunk(log.audio_selection[i], static_cast<int>(i)).size_bytes;
  }
  EXPECT_EQ(log.total_downloaded_bytes(), expected);
}

}  // namespace
}  // namespace demuxabr
