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
//
// A second battery pins cache-aware fleets (fleet/cdn_fleet.h): cached
// edge -> core chains under demuxed and muxed storage, an unbounded and an
// evicting edge, and no, an unbounded and a bounded regional tier. Its
// digests were recorded from the fleet CDN plane's former private edge and
// regional LRU tiers, before that plane was rebuilt on CdnChain.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/muxed_player.h"
#include "experiments/scenarios.h"
#include "fleet/cdn_fleet.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/scheduler.h"
#include "net/topology.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "util/strings.h"

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

std::unique_ptr<PlayerAdapter> make_muxed() {
  return std::make_unique<MuxedPlayer>();
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

// --- Cache-aware fleets ---

enum class Regional { kNone, kUnbounded, kBounded };

/// One cache-fleet configuration plus the FNV-1a digest of its
/// fleet_fingerprint. Every case runs under kBarrier, kEventHeap and the
/// 2-thread shard runner, which must all reproduce the same digest.
struct CacheGoldenCase {
  StorageMode storage;
  bool evicting_edge;  ///< edge of 1/60 of the demuxed catalog; else unbounded
  Regional regional;
  bool streaming;
  bool telemetry;
  std::uint64_t digest;
};

/// Two independent edge -> core chains (so threads=2 runs two shards), the
/// cache on the client-side edge hop so edge hits skip the core.
TopologySpec golden_cached_chains(const CacheSpec& cache) {
  TopologySpec spec;
  for (int i = 0; i < 2; ++i) {
    const std::size_t edge = spec.add_link(
        format("edge-%d", i), BandwidthTrace::square_wave(2400.0, 5200.0, 6.0, 4.5));
    const std::size_t core = spec.add_link(
        format("core-%d", i), BandwidthTrace::square_wave(3000.0, 7000.0, 7.0, 5.0));
    spec.add_path(format("chain-%d", i), {edge, core});
    spec.links[edge].cache = cache;
  }
  return spec;
}

FleetConfig cache_golden_config(const CacheGoldenCase& golden,
                                std::int64_t demuxed_catalog_bytes) {
  FleetConfig config;
  config.client_count = 10;
  config.seed = 53;
  // ExoPlayer fetches demuxed objects and MuxedPlayer A x V combinations,
  // so either storage mode also sees uncacheable requests.
  config.players.push_back({"exoplayer", &make_exo, 1.0});
  config.players.push_back({"muxed", &make_muxed, 1.0});
  // Sparse arrivals: a late client asks for objects the evicting edge has
  // dropped, which is what reaches the regional tier.
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.1;
  config.churn.leave_probability = 0.3;
  config.churn.min_watch_s = 20.0;
  config.churn.max_watch_s = 60.0;
  config.session.max_sim_time_s = 100.0;
  if (golden.streaming) config.streaming.client_threshold = 0;
  config.telemetry.enabled = golden.telemetry;
  config.telemetry.bin_s = 4.0;
  config.cdn.storage = golden.storage;
  CacheSpec cache;
  cache.capacity_bytes = golden.evicting_edge ? demuxed_catalog_bytes / 60 : 0;
  switch (golden.regional) {
    case Regional::kNone: cache.regional_capacity_bytes = -1; break;
    case Regional::kUnbounded: cache.regional_capacity_bytes = 0; break;
    case Regional::kBounded: cache.regional_capacity_bytes = demuxed_catalog_bytes / 16; break;
  }
  config.topology = golden_cached_chains(cache);
  return config;
}

constexpr CacheGoldenCase kCacheGoldenCases[] = {
  {StorageMode::kDemuxed, false, Regional::kNone, false, false, 0xd92dbdd620ee98c9ull},
  {StorageMode::kDemuxed, false, Regional::kNone, false, true, 0x4dd343c081aeaec7ull},
  {StorageMode::kDemuxed, false, Regional::kNone, true, false, 0x2b3a6d3f1d8a5416ull},
  {StorageMode::kDemuxed, false, Regional::kNone, true, true, 0xe7e7b74bca811ec4ull},
  {StorageMode::kDemuxed, false, Regional::kUnbounded, false, false, 0xd92dbdd620ee98c9ull},
  {StorageMode::kDemuxed, false, Regional::kUnbounded, false, true, 0x4dd343c081aeaec7ull},
  {StorageMode::kDemuxed, false, Regional::kUnbounded, true, false, 0x2b3a6d3f1d8a5416ull},
  {StorageMode::kDemuxed, false, Regional::kUnbounded, true, true, 0xe7e7b74bca811ec4ull},
  {StorageMode::kDemuxed, false, Regional::kBounded, false, false, 0x1aa58eda439622aeull},
  {StorageMode::kDemuxed, false, Regional::kBounded, false, true, 0x7126c017258ed37cull},
  {StorageMode::kDemuxed, false, Regional::kBounded, true, false, 0x6e4af34e8326fbb9ull},
  {StorageMode::kDemuxed, false, Regional::kBounded, true, true, 0xde5535a7970bfdd7ull},
  {StorageMode::kDemuxed, true, Regional::kNone, false, false, 0x4a7e687c7c8a624aull},
  {StorageMode::kDemuxed, true, Regional::kNone, false, true, 0x8bbfe2184f2a0e2bull},
  {StorageMode::kDemuxed, true, Regional::kNone, true, false, 0xeb9c43e3ccd93174ull},
  {StorageMode::kDemuxed, true, Regional::kNone, true, true, 0x49ab29fec533d081ull},
  {StorageMode::kDemuxed, true, Regional::kUnbounded, false, false, 0x3aaa3efed9bd23c4ull},
  {StorageMode::kDemuxed, true, Regional::kUnbounded, false, true, 0x263b6c97a3bd5371ull},
  {StorageMode::kDemuxed, true, Regional::kUnbounded, true, false, 0xf4cd364c1d5d702eull},
  {StorageMode::kDemuxed, true, Regional::kUnbounded, true, true, 0x80a082e0694b4577ull},
  {StorageMode::kDemuxed, true, Regional::kBounded, false, false, 0xc6657fb6a6e241a1ull},
  {StorageMode::kDemuxed, true, Regional::kBounded, false, true, 0xe222f8cd72bfd492ull},
  {StorageMode::kDemuxed, true, Regional::kBounded, true, false, 0x3e8fd2a244d14ca3ull},
  {StorageMode::kDemuxed, true, Regional::kBounded, true, true, 0x012ea84bb75ab530ull},
  {StorageMode::kMuxed, false, Regional::kNone, false, false, 0x6e56363998d2a9faull},
  {StorageMode::kMuxed, false, Regional::kNone, false, true, 0x10675f9954d41e47ull},
  {StorageMode::kMuxed, false, Regional::kNone, true, false, 0xa56c3df917936bc6ull},
  {StorageMode::kMuxed, false, Regional::kNone, true, true, 0x55e6ac017206d933ull},
  {StorageMode::kMuxed, false, Regional::kUnbounded, false, false, 0x6e56363998d2a9faull},
  {StorageMode::kMuxed, false, Regional::kUnbounded, false, true, 0x10675f9954d41e47ull},
  {StorageMode::kMuxed, false, Regional::kUnbounded, true, false, 0xa56c3df917936bc6ull},
  {StorageMode::kMuxed, false, Regional::kUnbounded, true, true, 0x55e6ac017206d933ull},
  {StorageMode::kMuxed, false, Regional::kBounded, false, false, 0xb6090857c3c4beadull},
  {StorageMode::kMuxed, false, Regional::kBounded, false, true, 0xf1e7b79aff295ef0ull},
  {StorageMode::kMuxed, false, Regional::kBounded, true, false, 0x5ac7093973023499ull},
  {StorageMode::kMuxed, false, Regional::kBounded, true, true, 0xc1fce380deee9b2cull},
  {StorageMode::kMuxed, true, Regional::kNone, false, false, 0x4de4fa230ce6e7feull},
  {StorageMode::kMuxed, true, Regional::kNone, false, true, 0x85611f6afc692423ull},
  {StorageMode::kMuxed, true, Regional::kNone, true, false, 0x9f8de596082c47a6ull},
  {StorageMode::kMuxed, true, Regional::kNone, true, true, 0xe701e79a498ceadbull},
  {StorageMode::kMuxed, true, Regional::kUnbounded, false, false, 0x54135332b3698010ull},
  {StorageMode::kMuxed, true, Regional::kUnbounded, false, true, 0xdc5b3f188b3f3af1ull},
  {StorageMode::kMuxed, true, Regional::kUnbounded, true, false, 0xc1596c953866b318ull},
  {StorageMode::kMuxed, true, Regional::kUnbounded, true, true, 0xfaf520920b211d09ull},
  {StorageMode::kMuxed, true, Regional::kBounded, false, false, 0xce1209552719db61ull},
  {StorageMode::kMuxed, true, Regional::kBounded, false, true, 0xb64ef46636db76ccull},
  {StorageMode::kMuxed, true, Regional::kBounded, true, false, 0x70a234c29ece5889ull},
  {StorageMode::kMuxed, true, Regional::kBounded, true, true, 0xc46b85d903e3d8e4ull},
};

TEST(GoldenFingerprint, CacheAwareFleetsMatchRecordedDigests) {
  const ex::ExperimentSetup setup = ex::plain_dash(golden_video_trace(1), "golden-cdn");
  const std::int64_t demuxed_bytes =
      make_fleet_catalog(setup.content, StorageMode::kDemuxed)->total_bytes();
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  for (const CacheGoldenCase& golden : kCacheGoldenCases) {
    FleetConfig config = cache_golden_config(golden, demuxed_bytes);
    for (const int mode : {0, 1, 2}) {
      config.engine = mode == 0 ? Engine::kBarrier : Engine::kEventHeap;
      config.threads = mode == 2 ? 2 : 1;
      SCOPED_TRACE(testing::Message()
                   << storage_mode_name(golden.storage) << " storage, "
                   << (golden.evicting_edge ? "evicting" : "unbounded") << " edge, regional "
                   << static_cast<int>(golden.regional) << ", streaming "
                   << golden.streaming << ", telemetry " << golden.telemetry
                   << (mode == 0 ? ", barrier" : mode == 1 ? ", event-heap" : ", threads=2"));
      const FleetResult result = run_fleet(setup.content, setup.view, unused, config);
      ASSERT_EQ(result.cdns.size(), 2u);
      // The battery exercises what it claims to pin.
      std::int64_t uncacheable = 0;
      std::int64_t regional_hits = 0;
      std::size_t edge_evictions = 0;
      for (const CdnStats& cdn : result.cdns) {
        uncacheable += cdn.uncacheable;
        regional_hits += cdn.regional_hits;
        edge_evictions += cdn.edge_evictions;
      }
      EXPECT_GT(uncacheable, 0);
      EXPECT_EQ(edge_evictions > 0, golden.evicting_edge);
      if (golden.regional == Regional::kNone) {
        EXPECT_EQ(regional_hits, 0);
      } else if (golden.evicting_edge) {
        EXPECT_GT(regional_hits, 0);
      }
      EXPECT_EQ(fnv1a(fleet_fingerprint(result)), golden.digest);
    }
  }
}

}  // namespace
}  // namespace demuxabr::fleet
