// Seek support: buffer flush, aligned restart of both media types, stall
// accounting, and interaction with each player model.
#include <gtest/gtest.h>

#include <memory>

#include "core/coordinated_player.h"
#include "core/muxed_player.h"
#include "experiments/scenarios.h"
#include "fleet/scheduler.h"
#include "imbalance_oracle.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"

namespace demuxabr {
namespace {

namespace ex = demuxabr::experiments;

SessionLog run_with_seeks(PlayerAdapter& player, std::vector<SeekEvent> seeks,
                          double kbps = 1200.0) {
  auto setup = ex::bestpractice_dash(BandwidthTrace::constant(kbps), "seek");
  setup.session.seeks = std::move(seeks);
  return ex::run(setup, player);
}

TEST(Seek, ForwardSeekJumpsPlayheadAndCompletes) {
  CoordinatedPlayer player;
  const SessionLog log = run_with_seeks(player, {{30.0, 200.0}});
  ASSERT_TRUE(log.completed);
  ASSERT_EQ(log.seeks.size(), 1u);
  EXPECT_NEAR(log.seeks[0].at_t, 30.0, 0.01);
  EXPECT_DOUBLE_EQ(log.seeks[0].to_position_s, 200.0);  // chunk-aligned
  // The session ends much earlier than 300 s of playback would take: the
  // seek skipped ~170 s of content.
  EXPECT_LT(log.end_time_s, 180.0);
}

TEST(Seek, TargetSnapsToChunkBoundary) {
  CoordinatedPlayer player;
  const SessionLog log = run_with_seeks(player, {{30.0, 201.7}});
  ASSERT_EQ(log.seeks.size(), 1u);
  EXPECT_DOUBLE_EQ(log.seeks[0].to_position_s, 200.0);  // floor to 4 s grid
}

TEST(Seek, BackwardSeekRedownloadsChunks) {
  CoordinatedPlayer player;
  const SessionLog log = run_with_seeks(player, {{60.0, 8.0}});
  ASSERT_TRUE(log.completed);
  // Chunks at and after position 8 s (index 2) were downloaded twice.
  int downloads_of_chunk2_video = 0;
  for (const DownloadRecord& d : log.downloads) {
    if (d.type == MediaType::kVideo && d.chunk_index == 2) ++downloads_of_chunk2_video;
  }
  EXPECT_EQ(downloads_of_chunk2_video, 2);
}

TEST(Seek, CancelsInFlightDownloads) {
  // Very slow link: a download is guaranteed to be in flight at seek time.
  CoordinatedPlayer player;
  const SessionLog log = run_with_seeks(player, {{10.0, 100.0}}, /*kbps=*/300.0);
  EXPECT_GE(log.abandoned.size(), 1u);
  EXPECT_GT(log.wasted_bytes(), 0);
}

TEST(Seek, RebufferCountsAsStallWhilePlaying) {
  CoordinatedPlayer player;
  const SessionLog log = run_with_seeks(player, {{30.0, 200.0}});
  // The seek interrupted active playback -> at least one stall beginning at
  // the seek instant.
  bool found = false;
  for (const StallEvent& stall : log.stalls) {
    if (std::abs(stall.start_t - 30.0) < 0.01) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Seek, BothMediaTypesRestartAligned) {
  CoordinatedPlayer player;
  const SessionLog log = run_with_seeks(player, {{30.0, 200.0}});
  // First post-seek downloads are chunk 50 for BOTH types.
  int first_audio = -1;
  int first_video = -1;
  for (const DownloadRecord& d : log.downloads) {
    if (d.start_t < 30.0) continue;
    if (d.type == MediaType::kAudio && first_audio < 0) first_audio = d.chunk_index;
    if (d.type == MediaType::kVideo && first_video < 0) first_video = d.chunk_index;
  }
  EXPECT_EQ(first_audio, 50);
  EXPECT_EQ(first_video, 50);
}

TEST(Seek, MultipleSeeksInOneSession) {
  CoordinatedPlayer player;
  const SessionLog log =
      run_with_seeks(player, {{20.0, 120.0}, {40.0, 240.0}, {60.0, 280.0}});
  ASSERT_TRUE(log.completed);
  EXPECT_EQ(log.seeks.size(), 3u);
  EXPECT_LT(log.end_time_s, 120.0);
  // The imbalance fold samples straight through the buffer flushes: it
  // still equals the walk over the recorded buffer series, bit for bit.
  EXPECT_GT(log.mean_buffer_imbalance_s(), 0.0);
  EXPECT_EQ(log.mean_buffer_imbalance_s(), series_imbalance_s(log));
}

TEST(Seek, WorksWithEveryPlayerModel) {
  for (int which = 0; which < 3; ++which) {
    SessionLog log;
    if (which == 0) {
      ExoPlayerModel player;
      auto setup = ex::plain_dash(BandwidthTrace::constant(1200.0), "seek");
      setup.session.seeks = {{30.0, 200.0}};
      log = ex::run(setup, player);
    } else if (which == 1) {
      DashJsPlayerModel player;
      auto setup = ex::plain_dash(BandwidthTrace::constant(1200.0), "seek");
      setup.session.seeks = {{30.0, 200.0}};
      log = ex::run(setup, player);
    } else {
      MuxedPlayer player;
      auto setup = ex::plain_dash(BandwidthTrace::constant(1200.0), "seek");
      setup.session.seeks = {{30.0, 200.0}};
      log = ex::run(setup, player);
    }
    EXPECT_TRUE(log.completed) << which;
    EXPECT_EQ(log.seeks.size(), 1u) << which;
  }
}

TEST(Seek, SeekToNearEndFinishesQuickly) {
  CoordinatedPlayer player;
  const SessionLog log = run_with_seeks(player, {{10.0, 296.0}});
  ASSERT_TRUE(log.completed);
  EXPECT_LT(log.end_time_s, 30.0);
}

// A minimal log folds seeks into the same totals a full log does, so the
// two modes agree on every QoE term but the two per-slot ones.
TEST(Seek, MinimalLogMatchesFullLogQoe) {
  auto setup = ex::bestpractice_dash(ex::varying_600_trace(), "seek");
  setup.session.seeks = {{30.0, 200.0}, {70.0, 40.0}};
  CoordinatedPlayer full_player;
  const SessionLog full = ex::run(setup, full_player);
  setup.session.minimal_log = true;
  CoordinatedPlayer minimal_player;
  const SessionLog minimal = ex::run(setup, minimal_player);

  ASSERT_TRUE(minimal.minimal);
  EXPECT_TRUE(minimal.downloads.empty());
  EXPECT_TRUE(minimal.video_selection.empty());
  EXPECT_EQ(minimal.seeks.size(), 2u);
  EXPECT_EQ(full.seeks.size(), 2u);
  EXPECT_EQ(minimal.completed, full.completed);
  EXPECT_EQ(minimal.end_time_s, full.end_time_s);
  EXPECT_EQ(minimal.download_count(), full.download_count());
  EXPECT_EQ(minimal.abandoned_count(), full.abandoned_count());
  EXPECT_EQ(minimal.total_downloaded_bytes(), full.total_downloaded_bytes());
  EXPECT_EQ(minimal.wasted_bytes(), full.wasted_bytes());

  const QoeReport f = compute_qoe(full);
  const QoeReport m = compute_qoe(minimal);
  EXPECT_GT(f.stall_count, 0);
  EXPECT_EQ(m.startup_delay_s, f.startup_delay_s);
  EXPECT_EQ(m.total_stall_s, f.total_stall_s);
  EXPECT_EQ(m.stall_count, f.stall_count);
  EXPECT_EQ(m.avg_video_kbps, f.avg_video_kbps);
  EXPECT_EQ(m.avg_audio_kbps, f.avg_audio_kbps);
  EXPECT_EQ(m.video_switches, f.video_switches);
  EXPECT_EQ(m.audio_switches, f.audio_switches);
  EXPECT_EQ(m.qoe_score, f.qoe_score);
}

// After a backward seek some chunks are downloaded twice. Each download
// counts once, so the average stays a mean of ladder rungs; dividing the
// bitrate sum by the chunk count instead would leave the ladder.
TEST(Seek, BackwardSeekAverageStaysOnTheLadder) {
  auto setup = ex::bestpractice_dash(BandwidthTrace::constant(8000.0), "seek");
  setup.session.seeks = {{200.0, 8.0}};
  setup.session.minimal_log = true;
  CoordinatedPlayer player;
  const SessionLog log = ex::run(setup, player);
  ASSERT_TRUE(log.completed);
  ASSERT_GT(log.totals.video_chunks, log.total_chunks);

  const double top_kbps = setup.content.ladder().video().back().avg_kbps;
  const QoeReport qoe = compute_qoe(log);
  EXPECT_LE(qoe.avg_video_kbps, top_kbps);
  EXPECT_GT(log.totals.video_kbps_sum / log.total_chunks, top_kbps);
}

// Streaming metrics run every session with a minimal log, seeks included.
TEST(Seek, StreamingFleetCarriesSeeks) {
  const auto setup = ex::plain_dash(BandwidthTrace::constant(2400.0), "seek");
  int players_built = 0;
  fleet::FleetConfig config;
  config.client_count = 3;
  config.players.push_back({"exoplayer",
                            [&players_built] {
                              ++players_built;
                              return std::make_unique<ExoPlayerModel>();
                            },
                            1.0});
  config.session.seeks = {{30.0, 200.0}, {60.0, 40.0}};
  const fleet::FleetResult full =
      fleet::run_fleet(setup.content, setup.view, setup.trace, config);
  EXPECT_EQ(players_built, 3);
  ASSERT_EQ(full.clients.size(), 3u);
  for (const fleet::ClientResult& client : full.clients) {
    EXPECT_EQ(client.log.seeks.size(), 2u);
  }

  config.streaming.client_threshold = 1;
  players_built = 0;
  const fleet::FleetResult streamed =
      fleet::run_fleet(setup.content, setup.view, setup.trace, config);
  EXPECT_EQ(players_built, 3);
  ASSERT_TRUE(streamed.streaming.has_value());
  EXPECT_EQ(streamed.streaming->clients, 3u);
  EXPECT_EQ(streamed.client_digest, full.client_digest);
  EXPECT_EQ(streamed.end_time_s, full.end_time_s);
}

}  // namespace
}  // namespace demuxabr
