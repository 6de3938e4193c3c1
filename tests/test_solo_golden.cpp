// Golden fingerprints of solo sessions: the paper figures, the §4 sweep and
// the leaderboard's session axis all run one StreamingSession over a
// Network::shared or Network::split carrier, and these digests pin that
// path to recorded outcomes bit for bit.
//
// Coverage: every comparison_players() entry on its comparison_setup(), on
// a shared and on a split network (the audio path a square wave out of
// phase with the video trace), over the Fig 3 varying-600 square wave and a
// periodic 480 s lte-handoff corpus trace; plus a session with forward and
// backward seeks and the dash.js bandwidth-cliff abandonment scenario. A
// second battery runs players over the manifests they meet outside their
// comparison_setup() (kPathGoldenCases).
//
// Each digest is the 64-bit FNV-1a of experiments::log_fingerprint(log),
// which covers every download, abandonment, stall, seek and selection and
// all six series at %.17g. Every session without seeks also checks its
// accessors and QoE against the walks in qoe_oracle.h.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "experiments/sweep.h"
#include "net/trace_corpus.h"
#include "players/dashjs.h"
#include "qoe_oracle.h"

namespace demuxabr {
namespace {

namespace ex = demuxabr::experiments;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

enum class SoloTrace { kVarying600, kLteHandoff };

/// One comparison-player session plus the digest of its log.
struct SoloGoldenCase {
  std::size_t player;  ///< comparison_players() index
  SoloTrace trace;
  bool split;
  std::uint64_t digest;
};

BandwidthTrace solo_video_trace(SoloTrace trace) {
  if (trace == SoloTrace::kVarying600) return ex::varying_600_trace();
  const TraceClass& lte = trace_class_registry().front();
  return lte.generate(480.0, 5);
}

/// Audio path of the split cases: phases of 5 s and 3 s against the video
/// traces' 8 s (or irregular) ones, low enough to stall a greedy player.
BandwidthTrace solo_audio_trace() {
  return BandwidthTrace::square_wave(96.0, 320.0, 5.0, 3.0);
}

constexpr SoloGoldenCase kSoloGoldenCases[] = {
  {0, SoloTrace::kVarying600, false, 0x41daefe12fa0cebeull},
  {0, SoloTrace::kVarying600, true, 0xb1f8f8d92d2964cdull},
  {0, SoloTrace::kLteHandoff, false, 0x81da1e97540bd419ull},
  {0, SoloTrace::kLteHandoff, true, 0xf077d479525d6d0dull},
  {1, SoloTrace::kVarying600, false, 0xcb5c98fdcccc8fe2ull},
  {1, SoloTrace::kVarying600, true, 0x38f0f4b1e5bf7791ull},
  {1, SoloTrace::kLteHandoff, false, 0xaedb5bf9ac033726ull},
  {1, SoloTrace::kLteHandoff, true, 0x908bd7108eb43df6ull},
  {2, SoloTrace::kVarying600, false, 0x94e66280cee7defbull},
  {2, SoloTrace::kVarying600, true, 0x6aa30cdd44c6e87bull},
  {2, SoloTrace::kLteHandoff, false, 0x023ee9ca66ebd7c7ull},
  {2, SoloTrace::kLteHandoff, true, 0xcb87c2cf9a0c74afull},
  {3, SoloTrace::kVarying600, false, 0x137ccb1b00e276faull},
  {3, SoloTrace::kVarying600, true, 0xead5c43643947cbcull},
  {3, SoloTrace::kLteHandoff, false, 0x8774b0e072f00945ull},
  {3, SoloTrace::kLteHandoff, true, 0xe465267297655dfeull},
  // MuxedPlayer fetches audio inside its video objects, so its split cases
  // leave the audio path idle and match its shared ones.
  {4, SoloTrace::kVarying600, false, 0xd9062245790f26a1ull},
  {4, SoloTrace::kVarying600, true, 0xd9062245790f26a1ull},
  {4, SoloTrace::kLteHandoff, false, 0x6925cd4737a8d72bull},
  {4, SoloTrace::kLteHandoff, true, 0x6925cd4737a8d72bull},
  {5, SoloTrace::kVarying600, false, 0xc6e5bebafac0c722ull},
  {5, SoloTrace::kVarying600, true, 0x7d40fd432e7da037ull},
  {5, SoloTrace::kLteHandoff, false, 0x7df4189feb5eeb7full},
  {5, SoloTrace::kLteHandoff, true, 0xc2a0e2739e8c8734ull},
  {6, SoloTrace::kVarying600, false, 0xa5e5e0f4fb0a1c97ull},
  {6, SoloTrace::kVarying600, true, 0xeeff023abf33acc6ull},
  {6, SoloTrace::kLteHandoff, false, 0x2a8e0838b8a45c9eull},
  {6, SoloTrace::kLteHandoff, true, 0x574ef9b317486217ull},
  {7, SoloTrace::kVarying600, false, 0x925557523454ff2bull},
  {7, SoloTrace::kVarying600, true, 0x84f3fc1a8bbebf45ull},
  {7, SoloTrace::kLteHandoff, false, 0xbbb4cbaa00ece71eull},
  {7, SoloTrace::kLteHandoff, true, 0x0c999aabf1dae70cull},
};

/// The manifests a player meets outside its comparison_setup(): ExoPlayer's
/// HLS first-variant ladder, Shaka's M x N grid over plain DASH, the muxed
/// player over listed H_all combinations, and the coordinated players'
/// client-side curation (plain DASH) and second-level HLS playlists.
enum class PathSetup { kFig3, kFig3x, kFig4a, kFig4c, kPlainDash, kBestPracticeHls };

struct PathGoldenCase {
  std::size_t player;  ///< comparison_players() index
  PathSetup setup;
  std::uint64_t digest;
};

ex::ExperimentSetup path_setup(PathSetup setup) {
  switch (setup) {
    case PathSetup::kFig3: return ex::fig3_exo_hls_a3_first();
    case PathSetup::kFig3x: return ex::fig3x_exo_hls_a1_first_5mbps();
    case PathSetup::kFig4a: return ex::fig4a_shaka_hall_1mbps();
    case PathSetup::kFig4c: return ex::fig4c_shaka_dash_1mbps();
    case PathSetup::kPlainDash: return ex::plain_dash(ex::varying_600_trace(), "varying-600");
    case PathSetup::kBestPracticeHls: break;
  }
  return ex::bestpractice_hls(ex::varying_600_trace(), "varying-600");
}

constexpr PathGoldenCase kPathGoldenCases[] = {
  {0, PathSetup::kFig3, 0x1f452709742ad558ull},
  {1, PathSetup::kFig3, 0x3de3486ab47901b2ull},
  {1, PathSetup::kFig3x, 0xd2204d691d19aaf7ull},
  {2, PathSetup::kFig4c, 0x016cdca902fa6f76ull},
  {4, PathSetup::kFig4a, 0x9592032deeee60b8ull},
  // The client-side curation and the HLS H_sub list give the rate
  // controller the same staircase as best-practice DASH, so both rows match
  // its comparison_setup() varying-600 shared digest.
  {5, PathSetup::kPlainDash, 0xc6e5bebafac0c722ull},
  {5, PathSetup::kBestPracticeHls, 0xc6e5bebafac0c722ull},
  {6, PathSetup::kPlainDash, 0xb961fac9f6c43885ull},
  {6, PathSetup::kBestPracticeHls, 0xfbc527bb9acfa45full},
  {7, PathSetup::kPlainDash, 0x0c8edeeda3dd1c61ull},
  {7, PathSetup::kBestPracticeHls, 0xb9267409965876ecull},
};

/// Digest of the coordinated player with a forward seek past the buffer
/// and a backward seek behind the playhead, over the varying-600 trace.
constexpr std::uint64_t kSeekDigest = 0xeddcd1a300cb2a00ull;
/// Digest of Abandonment.DashJsAbandonsOnBandwidthCliff's session.
constexpr std::uint64_t kCliffDigest = 0x6d2d1f6c9873ecd7ull;

/// What the battery exercised, summed over every case.
struct Coverage {
  std::size_t stalls = 0;
  std::size_t abandonments = 0;
  std::size_t seeks = 0;

  void add(const SessionLog& log) {
    stalls += log.stalls.size();
    abandonments += log.abandoned.size();
    seeks += log.seeks.size();
  }
};

TEST(SoloGoldenFingerprint, SessionsMatchRecordedDigests) {
  ASSERT_EQ(trace_class_registry().front().name, "lte-handoff");
  const auto& players = ex::comparison_players();
  ASSERT_EQ(players.size(), 8u);
  Coverage coverage;

  for (const SoloGoldenCase& golden : kSoloGoldenCases) {
    const bool lte = golden.trace == SoloTrace::kLteHandoff;
    SCOPED_TRACE(testing::Message()
                 << players[golden.player].label << ", "
                 << (lte ? "lte-handoff" : "varying-600") << ", "
                 << (golden.split ? "split" : "shared") << " network");
    ex::ExperimentSetup setup = ex::comparison_setup(
        golden.player, solo_video_trace(golden.trace), lte ? "lte-handoff" : "varying-600");
    if (golden.split) setup.audio_trace = solo_audio_trace();
    const std::unique_ptr<PlayerAdapter> player = players[golden.player].factory();
    const SessionLog log = ex::run(setup, *player);
    coverage.add(log);
    EXPECT_EQ(fnv1a(ex::log_fingerprint(log)), golden.digest);
    expect_matches_walk(log, setup.content.ladder());
  }

  {
    SCOPED_TRACE("forward and backward seeks");
    ex::ExperimentSetup setup = ex::bestpractice_dash(ex::varying_600_trace(), "seek");
    setup.session.seeks = {{30.0, 200.0}, {70.0, 40.0}};
    CoordinatedPlayer player;
    const SessionLog log = ex::run(setup, player);
    coverage.add(log);
    EXPECT_EQ(log.seeks.size(), 2u);
    EXPECT_EQ(fnv1a(ex::log_fingerprint(log)), kSeekDigest);
  }

  {
    SCOPED_TRACE("dash.js bandwidth cliff");
    ex::ExperimentSetup setup = ex::fig5_dashjs_700();
    setup.trace = BandwidthTrace::steps({{60.0, 2000.0}, {600.0, 150.0}}, false);
    setup.session.max_sim_time_s = 4000.0;
    DashJsPlayerModel player;
    const SessionLog log = ex::run(setup, player);
    coverage.add(log);
    EXPECT_EQ(fnv1a(ex::log_fingerprint(log)), kCliffDigest);
    expect_matches_walk(log, setup.content.ladder());
  }

  // The battery pins the paths it claims to.
  EXPECT_GT(coverage.stalls, 0u);
  EXPECT_GT(coverage.abandonments, 0u);
  EXPECT_GT(coverage.seeks, 0u);
}

TEST(SoloGoldenFingerprint, ManifestPathsMatchRecordedDigests) {
  const auto& players = ex::comparison_players();
  ASSERT_EQ(players.size(), 8u);
  for (const PathGoldenCase& golden : kPathGoldenCases) {
    const ex::ExperimentSetup setup = path_setup(golden.setup);
    SCOPED_TRACE(testing::Message() << players[golden.player].label << " on " << setup.id);
    const std::unique_ptr<PlayerAdapter> player = players[golden.player].factory();
    const SessionLog log = ex::run(setup, *player);
    EXPECT_EQ(fnv1a(ex::log_fingerprint(log)), golden.digest);
    expect_matches_walk(log, setup.content.ladder());
  }
}

}  // namespace
}  // namespace demuxabr
