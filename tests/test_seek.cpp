// Seek support: buffer flush, aligned restart of both media types, stall
// accounting, and interaction with each player model.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

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

// Seeks overwrite earlier selection slots, which a minimal log's totals
// cannot represent. The combination is refused up front, in every build
// type.
TEST(Seek, MinimalLogSessionRejectsSeeks) {
  auto setup = ex::bestpractice_dash(BandwidthTrace::constant(1200.0), "seek");
  setup.session.seeks = {{30.0, 200.0}};
  setup.session.minimal_log = true;
  CoordinatedPlayer player;
  EXPECT_THROW(ex::run(setup, player), std::invalid_argument);
}

TEST(Seek, StreamingFleetRejectsSeeks) {
  const auto setup = ex::plain_dash(BandwidthTrace::constant(2400.0), "seek");
  int players_built = 0;
  fleet::FleetConfig config;
  config.client_count = 2;
  config.players.push_back({"exoplayer",
                            [&players_built] {
                              ++players_built;
                              return std::make_unique<ExoPlayerModel>();
                            },
                            1.0});
  config.session.seeks = {{30.0, 200.0}};
  // Full logs carry seeks.
  EXPECT_NO_THROW(fleet::run_fleet(setup.content, setup.view, setup.trace, config));
  EXPECT_EQ(players_built, 2);
  // Streaming metrics switch every session to a minimal log: the run fails
  // before it admits a single client.
  config.streaming.client_threshold = 1;
  players_built = 0;
  EXPECT_THROW(fleet::run_fleet(setup.content, setup.view, setup.trace, config),
               std::invalid_argument);
  EXPECT_EQ(players_built, 0);
}

}  // namespace
}  // namespace demuxabr
