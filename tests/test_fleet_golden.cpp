// Golden fingerprints of single- and two-link fleets. Every fleet runs over
// a Topology: a shared-audio fleet is TopologySpec::single(bottleneck) and a
// split-audio fleet is two one-link paths (video-bottleneck /
// audio-bottleneck) with an audio_assignment. The digests below were
// recorded from the fleet engine's former dedicated plain-link path (one
// shared Link, or a video Link plus an audio Link), so these configurations
// must keep reproducing that path's outcomes bit for bit.
//
// Coverage: shared and split audio x kBarrier/kEventHeap x telemetry
// off/on x full/streaming logs x N in {1, 3, 20}, on square-wave traces
// whose capacity changes fall inside flows, with a player mix, Poisson
// arrivals, churn and a session cap that together end sessions by
// completion, departure and cap.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "experiments/scenarios.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/scheduler.h"
#include "fleet/topology.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"

namespace demuxabr::fleet {
namespace {

namespace ex = demuxabr::experiments;

/// One fleet configuration of the golden battery plus the FNV-1a
/// digest of its fleet_fingerprint.
struct GoldenCase {
  bool split_audio;
  Engine engine;
  bool telemetry;
  bool streaming;
  int clients;
  std::uint64_t digest;
};

std::unique_ptr<PlayerAdapter> make_exo() {
  return std::make_unique<ExoPlayerModel>();
}

std::unique_ptr<PlayerAdapter> make_dashjs() {
  return std::make_unique<DashJsPlayerModel>();
}

/// Square waves with phases shorter than a chunk download at the fleet's
/// fair share, so capacity changes fall inside flows. Capacity scales with
/// the fleet so every size stays contended but finite.
BandwidthTrace golden_video_trace(int clients) {
  const double n = static_cast<double>(clients);
  return BandwidthTrace::square_wave(450.0 * n + 300.0, 1100.0 * n + 600.0, 6.0, 4.5);
}

BandwidthTrace golden_audio_trace(int clients) {
  const double n = static_cast<double>(clients);
  return BandwidthTrace::square_wave(70.0 * n + 40.0, 200.0 * n + 96.0, 3.5, 2.5);
}

FleetConfig golden_config(const GoldenCase& golden) {
  FleetConfig config;
  config.client_count = golden.clients;
  config.seed = 47;
  config.engine = golden.engine;
  config.players.push_back({"exoplayer", &make_exo, 2.0});
  config.players.push_back({"dashjs", &make_dashjs, 1.0});
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.4;
  config.churn.leave_probability = 0.3;
  config.churn.min_watch_s = 20.0;
  config.churn.max_watch_s = 70.0;
  // Just above the 300 s content: sessions that stalled for longer hit the
  // cap while the rest complete or churn.
  config.session.max_sim_time_s = 304.0;
  if (golden.streaming) config.streaming.client_threshold = 0;
  config.telemetry.enabled = golden.telemetry;
  config.telemetry.bin_s = 4.0;
  return config;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr GoldenCase kGoldenCases[] = {
  {false, Engine::kBarrier, false, false, 1, 0x1443557f8cacfa46ull},
  {false, Engine::kBarrier, false, false, 3, 0x1e96f1bd4da8350dull},
  {false, Engine::kBarrier, false, false, 20, 0x19d62aca0021f5bcull},
  {false, Engine::kBarrier, false, true, 1, 0x9cbc07c886af0ebbull},
  {false, Engine::kBarrier, false, true, 3, 0x2b48b8434c1cfddeull},
  {false, Engine::kBarrier, false, true, 20, 0x0baf81229ec3cd46ull},
  {false, Engine::kBarrier, true, false, 1, 0x5dd4bed7e5c1ef5full},
  {false, Engine::kBarrier, true, false, 3, 0x81fc4167c5d7e64cull},
  {false, Engine::kBarrier, true, false, 20, 0x8c6d44eb472cccb2ull},
  {false, Engine::kBarrier, true, true, 1, 0x4de332c0ff96c30cull},
  {false, Engine::kBarrier, true, true, 3, 0x742a31a4c5118fefull},
  {false, Engine::kBarrier, true, true, 20, 0x2916e7a5f5cf3e34ull},
  {false, Engine::kEventHeap, false, false, 1, 0x1443557f8cacfa46ull},
  {false, Engine::kEventHeap, false, false, 3, 0x1e96f1bd4da8350dull},
  {false, Engine::kEventHeap, false, false, 20, 0x19d62aca0021f5bcull},
  {false, Engine::kEventHeap, false, true, 1, 0x9cbc07c886af0ebbull},
  {false, Engine::kEventHeap, false, true, 3, 0x2b48b8434c1cfddeull},
  {false, Engine::kEventHeap, false, true, 20, 0x0baf81229ec3cd46ull},
  {false, Engine::kEventHeap, true, false, 1, 0x5dd4bed7e5c1ef5full},
  {false, Engine::kEventHeap, true, false, 3, 0x81fc4167c5d7e64cull},
  {false, Engine::kEventHeap, true, false, 20, 0x8c6d44eb472cccb2ull},
  {false, Engine::kEventHeap, true, true, 1, 0x4de332c0ff96c30cull},
  {false, Engine::kEventHeap, true, true, 3, 0x742a31a4c5118fefull},
  {false, Engine::kEventHeap, true, true, 20, 0x2916e7a5f5cf3e34ull},
  {true, Engine::kBarrier, false, false, 1, 0x902b799fed75fcc6ull},
  {true, Engine::kBarrier, false, false, 3, 0xd7d22f8aaa8d190aull},
  {true, Engine::kBarrier, false, false, 20, 0xc67a45b4ae55c549ull},
  {true, Engine::kBarrier, false, true, 1, 0xc4554a3df32cdaeaull},
  {true, Engine::kBarrier, false, true, 3, 0xdbeff97c9a03c19bull},
  {true, Engine::kBarrier, false, true, 20, 0x30d4b46e94b5c715ull},
  {true, Engine::kBarrier, true, false, 1, 0x2f636fd891b5be47ull},
  {true, Engine::kBarrier, true, false, 3, 0xff3b4c7bf24ae3beull},
  {true, Engine::kBarrier, true, false, 20, 0x4c8c91bcb7f6912full},
  {true, Engine::kBarrier, true, true, 1, 0x7e2cea2ae6498c4bull},
  {true, Engine::kBarrier, true, true, 3, 0x09d7fc90869c1863ull},
  {true, Engine::kBarrier, true, true, 20, 0xe3a271140d58d773ull},
  {true, Engine::kEventHeap, false, false, 1, 0x902b799fed75fcc6ull},
  {true, Engine::kEventHeap, false, false, 3, 0xd7d22f8aaa8d190aull},
  {true, Engine::kEventHeap, false, false, 20, 0xc67a45b4ae55c549ull},
  {true, Engine::kEventHeap, false, true, 1, 0xc4554a3df32cdaeaull},
  {true, Engine::kEventHeap, false, true, 3, 0xdbeff97c9a03c19bull},
  {true, Engine::kEventHeap, false, true, 20, 0x30d4b46e94b5c715ull},
  {true, Engine::kEventHeap, true, false, 1, 0x2f636fd891b5be47ull},
  {true, Engine::kEventHeap, true, false, 3, 0xff3b4c7bf24ae3beull},
  {true, Engine::kEventHeap, true, false, 20, 0x4c8c91bcb7f6912full},
  {true, Engine::kEventHeap, true, true, 1, 0x7e2cea2ae6498c4bull},
  {true, Engine::kEventHeap, true, true, 3, 0x09d7fc90869c1863ull},
  {true, Engine::kEventHeap, true, true, 20, 0xe3a271140d58d773ull},
};

/// Runs `golden` through the public API: plain run_fleet for shared audio,
/// a two-link spec for split audio.
FleetResult run_golden(const ex::ExperimentSetup& setup, const GoldenCase& golden) {
  FleetConfig config = golden_config(golden);
  if (golden.split_audio) {
    TopologySpec spec;
    const std::size_t video =
        spec.add_link("video-bottleneck", golden_video_trace(golden.clients));
    const std::size_t audio =
        spec.add_link("audio-bottleneck", golden_audio_trace(golden.clients));
    spec.video_assignment = {spec.add_path("video", {video})};
    spec.audio_assignment = {spec.add_path("audio", {audio})};
    config.topology = std::move(spec);
  }
  return run_fleet(setup.content, setup.view, golden_video_trace(golden.clients), config);
}

TEST(GoldenFingerprint, SingleAndTwoLinkFleetsMatchRecordedDigests) {
  const ex::ExperimentSetup setup = ex::plain_dash(golden_video_trace(1), "golden");
  for (const GoldenCase& golden : kGoldenCases) {
    SCOPED_TRACE(testing::Message()
                 << (golden.split_audio ? "split" : "shared") << " audio, "
                 << (golden.engine == Engine::kBarrier ? "barrier" : "event-heap")
                 << ", telemetry " << golden.telemetry << ", streaming "
                 << golden.streaming << ", clients " << golden.clients);
    const FleetResult result = run_golden(setup, golden);
    ASSERT_EQ(result.links.size(), golden.split_audio ? 2u : 1u);
    EXPECT_EQ(result.split_audio, golden.split_audio);
    EXPECT_EQ(fnv1a(fleet_fingerprint(result)), golden.digest);
  }
}

}  // namespace
}  // namespace demuxabr::fleet
