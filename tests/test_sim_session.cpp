#include "sim/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "manifest/builder.h"

namespace demuxabr {
namespace {

Content small_content(double duration_s = 40.0, double chunk_s = 4.0,
                      double audio_kbps = 64.0, double video_kbps = 200.0) {
  return ContentBuilder(make_ladder({audio_kbps}, {video_kbps}, /*video_peak=*/1.2))
      .duration_s(duration_s)
      .chunk_duration_s(chunk_s)
      .build();
}

ManifestView view_of(const Content& content) {
  return view_from_mpd(build_dash_mpd(content));
}

/// Deterministic scripted player: always downloads the single available
/// track per type, fills whichever eligible buffer is lower, and records
/// every event it observes for assertions.
class ScriptedPlayer : public PlayerAdapter {
 public:
  ScriptedPlayer(int max_concurrent, double buffer_target)
      : max_concurrent_(max_concurrent), buffer_target_(buffer_target) {}

  [[nodiscard]] std::string name() const override { return "scripted"; }
  void start(const ManifestView& view) override { view_ = view; }
  [[nodiscard]] int max_concurrent_downloads() const override { return max_concurrent_; }

  std::optional<DownloadRequest> next_request(const PlayerContext& ctx) override {
    std::optional<MediaType> chosen;
    for (MediaType type : {MediaType::kAudio, MediaType::kVideo}) {
      if (ctx.downloading(type)) continue;
      if (ctx.next_chunk(type) >= ctx.total_chunks) continue;
      if (ctx.buffer_s(type) >= buffer_target_) continue;
      if (!chosen.has_value() || ctx.buffer_s(type) < ctx.buffer_s(*chosen)) {
        chosen = type;
      }
    }
    if (!chosen.has_value()) return std::nullopt;
    DownloadRequest request;
    request.type = *chosen;
    request.track_id = view_.tracks(*chosen).front().id;
    request.chunk_index = ctx.next_chunk(*chosen);
    return request;
  }

  void on_progress(const ProgressSample& sample) override {
    samples.push_back(sample);
  }
  void on_chunk_complete(const ChunkCompletion& completion,
                         const PlayerContext& ctx) override {
    (void)ctx;
    completions.push_back(completion);
  }

  std::vector<ProgressSample> samples;
  std::vector<ChunkCompletion> completions;

 private:
  int max_concurrent_;
  double buffer_target_;
  ManifestView view_;
};

TEST(Session, CompletesOnAmpleBandwidth) {
  const Content content = small_content();
  ScriptedPlayer player(1, 20.0);
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(2000.0)),
                                     player);
  EXPECT_TRUE(log.completed);
  EXPECT_TRUE(log.stalls.empty());
  EXPECT_GE(log.end_time_s, content.duration_s());
  EXPECT_LT(log.end_time_s, content.duration_s() + 10.0);
}

TEST(Session, DownloadsEveryChunkOfBothTypes) {
  const Content content = small_content();
  ScriptedPlayer player(1, 60.0);
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(2000.0)),
                                     player);
  int audio_chunks = 0;
  int video_chunks = 0;
  for (const DownloadRecord& d : log.downloads) {
    (d.type == MediaType::kAudio ? audio_chunks : video_chunks) += 1;
  }
  EXPECT_EQ(audio_chunks, content.num_chunks());
  EXPECT_EQ(video_chunks, content.num_chunks());
  for (const std::string& id : log.video_selection) EXPECT_EQ(id, "V1");
  for (const std::string& id : log.audio_selection) EXPECT_EQ(id, "A1");
}

TEST(Session, ChunksDownloadInOrderPerType) {
  const Content content = small_content();
  ScriptedPlayer player(2, 60.0);
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(2000.0)),
                                     player);
  int next_audio = 0;
  int next_video = 0;
  for (const DownloadRecord& d : log.downloads) {
    int& next = d.type == MediaType::kAudio ? next_audio : next_video;
    EXPECT_EQ(d.chunk_index, next);
    ++next;
  }
}

TEST(Session, StartupDelayMatchesThreshold) {
  const Content content = small_content();
  ScriptedPlayer player(1, 60.0);
  SessionConfig config;
  config.startup_buffer_s = 2.0;
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(1000.0)),
                                     player, config);
  // One audio (32 KB) + one video (100 KB) chunk at 1 Mbps + 2 RTTs.
  EXPECT_GT(log.startup_delay_s, 0.5);
  EXPECT_LT(log.startup_delay_s, 3.0);
}

TEST(Session, StallsWhenBandwidthBelowConsumption) {
  // 264 kbps needed, 150 kbps available: must stall and must not complete
  // earlier than bytes/bandwidth allows.
  const Content content = small_content();
  ScriptedPlayer player(1, 60.0);
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(150.0)),
                                     player);
  EXPECT_TRUE(log.completed);
  EXPECT_GT(log.stalls.size(), 0u);
  EXPECT_GT(log.total_stall_s(), 10.0);
  const double min_transfer_time =
      static_cast<double>(log.total_downloaded_bytes()) * 8.0 / 1000.0 / 150.0;
  EXPECT_GE(log.end_time_s, min_transfer_time - 1e-6);
}

TEST(Session, StallIntervalsAreOrderedAndDisjoint) {
  const Content content = small_content();
  ScriptedPlayer player(1, 60.0);
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(150.0)),
                                     player);
  double previous_end = 0.0;
  for (const StallEvent& stall : log.stalls) {
    EXPECT_GT(stall.end_t, stall.start_t);
    EXPECT_GE(stall.start_t, previous_end);
    previous_end = stall.end_t;
  }
}

TEST(Session, SerialDownloadSeesFullLinkRate) {
  const Content content = small_content();
  ScriptedPlayer player(1, 60.0);
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(1000.0)),
                                     player);
  // Every download is solo: throughput (net of RTT) approaches 1000 kbps
  // and can never exceed it.
  for (const DownloadRecord& d : log.downloads) {
    EXPECT_LE(d.throughput_kbps(), 1000.0 + 1e-6);
    EXPECT_GT(d.throughput_kbps(), 300.0);  // RTT drag bounded
  }
}

TEST(Session, ConcurrentFlowsShareTheBottleneck) {
  // With concurrency 2 and identical audio/video tracks, concurrent
  // downloads each see roughly half the link.
  const Content content = small_content(40.0, 4.0, 200.0, 200.0);
  ScriptedPlayer player(2, 60.0);
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(1000.0)),
                                     player);
  // The first two downloads start together and overlap fully.
  ASSERT_GE(log.downloads.size(), 2u);
  const DownloadRecord& first = log.downloads[0];
  EXPECT_LT(first.throughput_kbps(), 750.0);
  EXPECT_GT(first.throughput_kbps(), 300.0);
}

TEST(Session, SplitNetworkIsolatesMediaTypes) {
  const Content content = small_content(40.0, 4.0, 200.0, 200.0);
  ScriptedPlayer player(2, 60.0);
  const Network network = Network::split(BandwidthTrace::constant(1000.0),
                                         BandwidthTrace::constant(1000.0));
  const SessionLog log =
      run_session(content, view_of(content), network, player);
  // No sharing: every download runs near full rate.
  for (const DownloadRecord& d : log.downloads) {
    EXPECT_GT(d.throughput_kbps(), 700.0);
  }
}

TEST(Session, RttDelaysEveryDownload) {
  const Content content = small_content();
  ScriptedPlayer player(1, 60.0);
  const Network network = Network::shared(BandwidthTrace::constant(10000.0), 0.2);
  const SessionLog log = run_session(content, view_of(content), network, player);
  for (const DownloadRecord& d : log.downloads) {
    EXPECT_GE(d.end_t - d.start_t, 0.2 - 1e-9);
  }
}

TEST(Session, ProgressSamplesSumToChunkBytes) {
  const Content content = small_content();
  ScriptedPlayer player(1, 60.0);
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(800.0)),
                                     player);
  std::int64_t sampled = 0;
  for (const ProgressSample& s : player.samples) {
    EXPECT_LE(s.duration_s(), 0.125 + 1e-9);
    EXPECT_GE(s.bytes, 0);
    sampled += s.bytes;
  }
  EXPECT_EQ(sampled, log.total_downloaded_bytes());
}

TEST(Session, CompletionEventsMatchLog) {
  const Content content = small_content();
  ScriptedPlayer player(1, 60.0);
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(800.0)),
                                     player);
  ASSERT_EQ(player.completions.size(), log.downloads.size());
  for (std::size_t i = 0; i < log.downloads.size(); ++i) {
    EXPECT_EQ(player.completions[i].bytes, log.downloads[i].bytes);
    EXPECT_EQ(player.completions[i].chunk_index, log.downloads[i].chunk_index);
    EXPECT_DOUBLE_EQ(player.completions[i].end_t, log.downloads[i].end_t);
  }
}

TEST(Session, BufferSeriesNonNegativeAndBounded) {
  const Content content = small_content();
  ScriptedPlayer player(1, 12.0);
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(1000.0)),
                                     player);
  for (const auto& point : log.video_buffer_s.points()) {
    EXPECT_GE(point.value, 0.0);
    EXPECT_LE(point.value, 12.0 + 4.0 + 1e-6);  // target + one chunk
  }
}

TEST(Session, HitsSimTimeCapWhenStarved) {
  // 1 kbps cannot deliver the content; the engine must bail at the cap.
  const Content content = small_content(8.0);
  ScriptedPlayer player(1, 60.0);
  SessionConfig config;
  config.max_sim_time_s = 30.0;
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(1.0)),
                                     player, config);
  EXPECT_FALSE(log.completed);
  EXPECT_GE(log.end_time_s, 30.0);
}

TEST(Session, DeterministicAcrossRuns) {
  const Content content = small_content();
  ScriptedPlayer p1(2, 20.0);
  ScriptedPlayer p2(2, 20.0);
  const Network n1 = Network::shared(BandwidthTrace::square_wave(300, 900, 8, 8));
  const Network n2 = Network::shared(BandwidthTrace::square_wave(300, 900, 8, 8));
  const SessionLog a = run_session(content, view_of(content), n1, p1);
  const SessionLog b = run_session(content, view_of(content), n2, p2);
  ASSERT_EQ(a.downloads.size(), b.downloads.size());
  for (std::size_t i = 0; i < a.downloads.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.downloads[i].end_t, b.downloads[i].end_t);
  }
  EXPECT_DOUBLE_EQ(a.end_time_s, b.end_time_s);
}

TEST(Session, ReusedNetworkIsRejected) {
  // Carriers keep their clock and flows after a session ends. A second
  // session over the same Network would start its downloads at the first
  // session's end time, so the constructor refuses it.
  const Content content = small_content();
  const Network network = Network::shared(BandwidthTrace::constant(1500.0));
  ScriptedPlayer first(2, 20.0);
  const SessionLog log = run_session(content, view_of(content), network, first);
  ASSERT_TRUE(log.completed);
  ScriptedPlayer second(2, 20.0);
  EXPECT_THROW(run_session(content, view_of(content), network, second),
               std::invalid_argument);
  // A fresh Network reproduces the first run.
  ScriptedPlayer fresh(2, 20.0);
  const SessionLog again = run_session(
      content, view_of(content), Network::shared(BandwidthTrace::constant(1500.0)), fresh);
  EXPECT_EQ(again.startup_delay_s, log.startup_delay_s);
  EXPECT_EQ(again.end_time_s, log.end_time_s);

  // The audio carrier alone trips it too, and a session that starts at the
  // carriers' clock is accepted.
  const Network split = Network::split(BandwidthTrace::constant(1500.0),
                                       BandwidthTrace::constant(200.0));
  split.link_for(false).add_flow(1.0);
  split.link_for(false).remove_flow(2.0);
  ScriptedPlayer early(2, 20.0);
  EXPECT_THROW(run_session(content, view_of(content), split, early), std::invalid_argument);
  SessionConfig at_clock;
  at_clock.start_time_s = 2.0;
  at_clock.max_sim_time_s = 2.0 + at_clock.max_sim_time_s;
  ScriptedPlayer on_time(2, 20.0);
  EXPECT_TRUE(run_session(content, view_of(content), split, on_time, at_clock).completed);
}

TEST(Session, PlaybackTimeEqualsContentPlusStallsPlusStartup) {
  const Content content = small_content();
  ScriptedPlayer player(1, 60.0);
  const SessionLog log = run_session(content, view_of(content),
                                     Network::shared(BandwidthTrace::constant(400.0)),
                                     player);
  ASSERT_TRUE(log.completed);
  EXPECT_NEAR(log.end_time_s,
              log.startup_delay_s + content.duration_s() + log.total_stall_s(), 0.01);
}

}  // namespace
}  // namespace demuxabr
