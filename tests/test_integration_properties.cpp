// Property-style sweeps: invariants that must hold for EVERY player model on
// EVERY standard trace (parameterized gtest over the cross product).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/compliance.h"
#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "imbalance_oracle.h"
#include "manifest/builder.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "players/shaka.h"

namespace demuxabr {
namespace {

namespace ex = demuxabr::experiments;

enum class PlayerKind { kExoDash, kExoHls, kShakaHls, kDashJs, kCoordinated };

const char* kind_name(PlayerKind kind) {
  switch (kind) {
    case PlayerKind::kExoDash: return "exo-dash";
    case PlayerKind::kExoHls: return "exo-hls";
    case PlayerKind::kShakaHls: return "shaka-hls";
    case PlayerKind::kDashJs: return "dashjs";
    case PlayerKind::kCoordinated: return "coordinated";
  }
  return "?";
}

struct Case {
  PlayerKind kind;
  std::size_t trace_index;
};

class PlayerTraceSweep : public ::testing::TestWithParam<Case> {
 protected:
  static ex::ExperimentSetup setup_for(PlayerKind kind, const BandwidthTrace& trace) {
    switch (kind) {
      case PlayerKind::kExoDash:
      case PlayerKind::kDashJs:
        return ex::plain_dash(trace, "sweep");
      case PlayerKind::kExoHls: {
        auto setup = ex::fig3_exo_hls_a3_first();
        setup.trace = trace;
        return setup;
      }
      case PlayerKind::kShakaHls: {
        auto setup = ex::fig4a_shaka_hall_1mbps();
        setup.trace = trace;
        return setup;
      }
      case PlayerKind::kCoordinated:
        return ex::bestpractice_dash(trace, "sweep");
    }
    return ex::plain_dash(trace, "sweep");
  }

  static std::unique_ptr<PlayerAdapter> player_for(PlayerKind kind) {
    switch (kind) {
      case PlayerKind::kExoDash:
      case PlayerKind::kExoHls:
        return std::make_unique<ExoPlayerModel>();
      case PlayerKind::kShakaHls:
        return std::make_unique<ShakaPlayerModel>();
      case PlayerKind::kDashJs:
        return std::make_unique<DashJsPlayerModel>();
      case PlayerKind::kCoordinated:
        return std::make_unique<CoordinatedPlayer>();
    }
    return nullptr;
  }
};

TEST_P(PlayerTraceSweep, SessionInvariantsHold) {
  const Case test_case = GetParam();
  const auto traces = ex::comparison_traces();
  ASSERT_LT(test_case.trace_index, traces.size());
  const auto& named = traces[test_case.trace_index];
  SCOPED_TRACE(std::string(kind_name(test_case.kind)) + " on " + named.name);

  auto setup = setup_for(test_case.kind, named.trace);
  auto player = player_for(test_case.kind);
  const SessionLog log = ex::run(setup, *player);

  // 1. The session finishes playback within the simulation budget.
  EXPECT_TRUE(log.completed);

  // 2. Every chunk of both media types was downloaded exactly once, in order.
  int next_audio = 0;
  int next_video = 0;
  for (const DownloadRecord& d : log.downloads) {
    int& next = d.type == MediaType::kAudio ? next_audio : next_video;
    ASSERT_EQ(d.chunk_index, next);
    ++next;
    // 3. Download intervals are sane and causally ordered.
    EXPECT_GT(d.end_t, d.start_t);
    EXPECT_GT(d.bytes, 0);
  }
  EXPECT_EQ(next_audio, log.total_chunks);
  EXPECT_EQ(next_video, log.total_chunks);

  // 4. Selections recorded for every chunk and refer to real tracks.
  for (std::size_t i = 0; i < log.video_selection.size(); ++i) {
    ASSERT_FALSE(log.video_selection[i].empty()) << i;
    ASSERT_FALSE(log.audio_selection[i].empty()) << i;
    EXPECT_NE(setup.content.ladder().find(log.video_selection[i]), nullptr);
    EXPECT_NE(setup.content.ladder().find(log.audio_selection[i]), nullptr);
  }

  // 5. No download ever exceeds the link capacity envelope.
  for (const DownloadRecord& d : log.downloads) {
    const double max_rate = named.trace.average_kbps(d.start_t, d.end_t) * 1.001;
    EXPECT_LE(d.throughput_kbps(), max_rate + 1.0)
        << "chunk " << d.chunk_index << " of " << media_type_name(d.type);
  }

  // 6. Buffer series stay non-negative.
  for (const auto& point : log.audio_buffer_s.points()) EXPECT_GE(point.value, -1e-9);
  for (const auto& point : log.video_buffer_s.points()) EXPECT_GE(point.value, -1e-9);

  // 7. Stalls are ordered, disjoint, within the session, and consistent
  //    with total playback-time accounting.
  double previous_end = 0.0;
  for (const StallEvent& stall : log.stalls) {
    EXPECT_GT(stall.end_t, stall.start_t);
    EXPECT_GE(stall.start_t, previous_end);
    EXPECT_LE(stall.end_t, log.end_time_s + 1e-9);
    previous_end = stall.end_t;
  }
  EXPECT_NEAR(log.end_time_s,
              log.startup_delay_s + log.content_duration_s + log.total_stall_s(), 0.05);

  // 8. Determinism: a second run gives the identical log.
  auto player2 = player_for(test_case.kind);
  const SessionLog log2 = ex::run(setup, *player2);
  ASSERT_EQ(log2.downloads.size(), log.downloads.size());
  for (std::size_t i = 0; i < log.downloads.size(); ++i) {
    EXPECT_EQ(log2.downloads[i].track_id, log.downloads[i].track_id);
    EXPECT_DOUBLE_EQ(log2.downloads[i].end_t, log.downloads[i].end_t);
  }
  EXPECT_DOUBLE_EQ(log2.end_time_s, log.end_time_s);

  // 9. The §3.4 imbalance metric, folded into SessionTotals at every tick,
  //    equals the walk over the recorded buffer series bit for bit.
  ASSERT_GE(log.audio_buffer_s.size(), 2u);
  EXPECT_EQ(log.mean_buffer_imbalance_s(), series_imbalance_s(log));
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  const std::size_t num_traces = ex::comparison_traces().size();
  for (PlayerKind kind : {PlayerKind::kExoDash, PlayerKind::kExoHls,
                          PlayerKind::kShakaHls, PlayerKind::kDashJs,
                          PlayerKind::kCoordinated}) {
    for (std::size_t t = 0; t < num_traces; ++t) cases.push_back({kind, t});
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name = kind_name(info.param.kind);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_trace" + std::to_string(info.param.trace_index);
}

INSTANTIATE_TEST_SUITE_P(AllPlayersAllTraces, PlayerTraceSweep,
                         ::testing::ValuesIn(all_cases()), case_name);

// Chunk-duration sweep: engine invariants independent of chunking.
class ChunkDurationSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChunkDurationSweep, CoordinatedPlayerCompletesCleanly) {
  const double chunk_s = GetParam();
  ex::ExperimentSetup setup = ex::bestpractice_dash(BandwidthTrace::constant(900.0), "cd");
  setup.content = ContentBuilder(youtube_drama_ladder())
                      .duration_s(120.0)
                      .chunk_duration_s(chunk_s)
                      .build();
  // Rebuild the view for the new chunking.
  DashBuildOptions options;
  CurationPolicy policy;
  options.allowed_combinations = curate_staircase(setup.content.ladder(), policy);
  const auto mpd = parse_mpd(serialize_mpd(build_dash_mpd(setup.content, options)));
  ASSERT_TRUE(mpd.ok());
  setup.view = view_from_mpd(*mpd);

  CoordinatedPlayer player;
  const SessionLog log = ex::run(setup, player);
  EXPECT_TRUE(log.completed);
  EXPECT_EQ(static_cast<int>(log.video_selection.size()), setup.content.num_chunks());
}

INSTANTIATE_TEST_SUITE_P(ChunkDurations, ChunkDurationSweep,
                         ::testing::Values(1.0, 2.0, 4.0, 6.0, 10.0));

// RTT sweep: higher RTT can only slow things down, never break invariants.
class RttSweep : public ::testing::TestWithParam<double> {};

TEST_P(RttSweep, ThroughputDegradesGracefully) {
  ex::ExperimentSetup setup = ex::bestpractice_dash(BandwidthTrace::constant(1500.0), "rtt");
  setup.rtt_s = GetParam();
  CoordinatedPlayer player;
  const SessionLog log = ex::run(setup, player);
  EXPECT_TRUE(log.completed);
  for (const DownloadRecord& d : log.downloads) {
    EXPECT_GE(d.end_t - d.start_t, GetParam() - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Rtts, RttSweep, ::testing::Values(0.0, 0.02, 0.05, 0.2, 0.5));

}  // namespace
}  // namespace demuxabr
