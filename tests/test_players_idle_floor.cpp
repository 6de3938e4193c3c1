// The two engine queries every player may answer (sim/player.h):
//
//  * idle_floor_s: with neither type downloading and every type that has
//    chunks left at or above its floor, next_request returns nullopt and
//    changes nothing. Each comparison player is driven through random
//    download histories on its comparison setup; at random points an idle
//    context built from its current floors must be refused, and a twin
//    player that never sees those probes must keep answering every later
//    call identically.
//  * observes_progress: a player answering false must inherit both progress
//    hooks from PlayerAdapter, checked at compile time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "experiments/sweep.h"
#include "players/dashjs.h"
#include "players/exo_legacy.h"
#include "players/exoplayer.h"
#include "util/rng.h"

namespace demuxabr {
namespace {

namespace ex = demuxabr::experiments;

template <typename Player>
constexpr bool inherits_progress_hooks =
    std::is_same_v<decltype(&Player::on_progress),
                   void (PlayerAdapter::*)(const ProgressSample&)> &&
    std::is_same_v<decltype(&Player::should_abandon),
                   bool (PlayerAdapter::*)(const ProgressSample&, const PlayerContext&)>;

static_assert(inherits_progress_hooks<ExoPlayerModel>,
              "ExoPlayerModel reports observes_progress() == false");
static_assert(inherits_progress_hooks<ExoLegacyPlayerModel>,
              "ExoLegacyPlayerModel reports observes_progress() == false");
static_assert(!inherits_progress_hooks<DashJsPlayerModel>,
              "the check must see an overridden hook");

TEST(PlayerObservesProgress, OnlyModelsWithInheritedHooksAnswerFalse) {
  // The static_asserts above cover the two models that answer false; any
  // other comparison player answering false would escape them.
  for (const ex::ComparisonPlayer& entry : ex::comparison_players()) {
    const std::unique_ptr<PlayerAdapter> player = entry.factory();
    if (player->observes_progress()) continue;
    EXPECT_TRUE(dynamic_cast<ExoPlayerModel*>(player.get()) != nullptr ||
                dynamic_cast<ExoLegacyPlayerModel*>(player.get()) != nullptr)
        << entry.label << " answers false without a compile-time hook check";
  }
}

bool same_request(const std::optional<DownloadRequest>& a,
                  const std::optional<DownloadRequest>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->type == b->type && a->track_id == b->track_id &&
         a->chunk_index == b->chunk_index && a->muxed == b->muxed &&
         a->audio_track_id == b->audio_track_id;
}

/// The client state a random download history moves through.
struct Client {
  double now = 0.0;
  double buffer_s[2] = {0.0, 0.0};  ///< indexed by MediaType
  int next_chunk[2] = {0, 0};
};

int slot(MediaType type) { return type == MediaType::kAudio ? 0 : 1; }

PlayerContext context_of(const Client& client, int total_chunks) {
  PlayerContext ctx;
  ctx.now = client.now;
  ctx.audio_buffer_s = client.buffer_s[slot(MediaType::kAudio)];
  ctx.video_buffer_s = client.buffer_s[slot(MediaType::kVideo)];
  ctx.next_audio_chunk = client.next_chunk[slot(MediaType::kAudio)];
  ctx.next_video_chunk = client.next_chunk[slot(MediaType::kVideo)];
  ctx.total_chunks = total_chunks;
  ctx.playing = true;
  ctx.playhead_s = client.now;
  return ctx;
}

/// A buffer level at or above `floor_s`: exactly on it, or up to one floor
/// (at least 1 s) above it, so a floor set too low by half reaches levels
/// the player still fetches at.
double level_at_or_above(double floor_s, Rng& rng) {
  if (!std::isfinite(floor_s)) return rng.uniform(0.0, 40.0);
  if (rng.bernoulli(0.2)) return floor_s;
  return floor_s + rng.uniform(0.0, std::max(floor_s, 1.0));
}

struct FloorCoverage {
  int probes = 0;
  int finished_type_probes = 0;
  int dashjs_top_rung_probes = 0;
};

/// One random history of `steps` calls, applied identically to `probed` and
/// `twin`; only `probed` also sees the idle probes.
void drive(const ex::ExperimentSetup& setup, PlayerAdapter& probed,
           PlayerAdapter& twin, std::uint64_t seed, int steps,
           FloorCoverage& coverage) {
  Rng rng(seed);
  const int total = setup.content.num_chunks();
  const double chunk_s = setup.content.chunk_duration_s();
  probed.start(setup.view);
  twin.start(setup.view);
  Client client;
  const bool is_dashjs = dynamic_cast<DashJsPlayerModel*>(&probed) != nullptr;

  for (int step = 0; step < steps && !::testing::Test::HasFailure(); ++step) {
    if (client.next_chunk[0] >= total && client.next_chunk[1] >= total) {
      // Everything fetched: seek back so the history keeps fetching.
      const int chunk = static_cast<int>(rng.uniform_int(0, total / 2));
      client.next_chunk[0] = client.next_chunk[1] = chunk;
      client.buffer_s[0] = client.buffer_s[1] = 0.0;
    }
    const double roll = rng.uniform();
    if (roll < 0.35) {
      // Idle probe: neither type downloads; each type is finished or at or
      // above the floor the player reports right now.
      PlayerContext ctx = context_of(client, total);
      bool any_finished = false;
      for (MediaType type : {MediaType::kAudio, MediaType::kVideo}) {
        int& next = type == MediaType::kAudio ? ctx.next_audio_chunk : ctx.next_video_chunk;
        double& level = type == MediaType::kAudio ? ctx.audio_buffer_s : ctx.video_buffer_s;
        if (next >= total || rng.bernoulli(0.15)) {
          next = total;
          level = rng.uniform(0.0, 40.0);
          any_finished = true;
        } else {
          level = level_at_or_above(probed.idle_floor_s(type), rng);
        }
      }
      ++coverage.probes;
      if (any_finished) ++coverage.finished_type_probes;
      if (is_dashjs) {
        for (MediaType type : {MediaType::kAudio, MediaType::kVideo}) {
          if (probed.idle_floor_s(type) == DashJsPlayerModel::kTopQualityBufferS) {
            ++coverage.dashjs_top_rung_probes;
          }
        }
      }
      const std::optional<DownloadRequest> request = probed.next_request(ctx);
      EXPECT_FALSE(request.has_value())
          << probed.name() << " fetched " << request->track_id << " chunk "
          << request->chunk_index << " at audio " << ctx.audio_buffer_s
          << " s (floor " << probed.idle_floor_s(MediaType::kAudio) << "), video "
          << ctx.video_buffer_s << " s (floor "
          << probed.idle_floor_s(MediaType::kVideo) << ")";
    } else if (roll < 0.55) {
      // Playback drains both buffers.
      const double dt = rng.uniform(0.0, 6.0);
      client.now += dt;
      for (double& level : client.buffer_s) level = std::max(0.0, level - dt);
    } else {
      // A poll at the client's own state; a request downloads at a random
      // throughput and completes (or, rarely, is abandoned).
      const PlayerContext ctx = context_of(client, total);
      const std::optional<DownloadRequest> request = probed.next_request(ctx);
      ASSERT_TRUE(same_request(request, twin.next_request(ctx)))
          << probed.name() << " diverged from its unprobed twin at step " << step;
      if (!request.has_value()) continue;
      std::int64_t bytes = setup.content.chunk(request->track_id, request->chunk_index).size_bytes;
      if (request->muxed) {
        bytes += setup.content.chunk(request->audio_track_id, request->chunk_index).size_bytes;
      }
      const double kbps = std::exp(rng.uniform(std::log(100.0), std::log(100000.0)));
      const double duration = static_cast<double>(bytes) * 8.0 / 1000.0 / kbps;
      ProgressSample sample;
      sample.type = request->type;
      sample.t0 = client.now;
      sample.t1 = client.now + std::min(duration, 0.125);
      sample.bytes = static_cast<std::int64_t>(kbps * (sample.t1 - sample.t0) * 125.0);
      PlayerContext busy = ctx;
      (request->type == MediaType::kAudio ? busy.audio_downloading
                                          : busy.video_downloading) = true;
      probed.on_progress(sample);
      twin.on_progress(sample);
      const bool abandon = probed.should_abandon(sample, busy);
      ASSERT_EQ(abandon, twin.should_abandon(sample, busy));
      if (abandon) continue;
      client.now += duration;
      for (double& level : client.buffer_s) level = std::max(0.0, level - duration);
      ChunkCompletion completion;
      completion.chunk_index = request->chunk_index;
      completion.start_t = client.now - duration;
      completion.end_t = client.now;
      for (int component = 0; component < (request->muxed ? 2 : 1); ++component) {
        const MediaType type = component == 0 ? request->type : MediaType::kAudio;
        completion.type = type;
        completion.track_id = component == 0 ? request->track_id : request->audio_track_id;
        completion.bytes =
            setup.content.chunk(std::string(completion.track_id), request->chunk_index)
                .size_bytes;
        client.buffer_s[slot(type)] += chunk_s;
        client.next_chunk[slot(type)] = request->chunk_index + 1;
        const PlayerContext after = context_of(client, total);
        probed.on_chunk_complete(completion, after);
        twin.on_chunk_complete(completion, after);
      }
    }
    ASSERT_EQ(probed.bandwidth_estimate_kbps(), twin.bandwidth_estimate_kbps());
    for (MediaType type : {MediaType::kAudio, MediaType::kVideo}) {
      ASSERT_EQ(probed.idle_floor_s(type), twin.idle_floor_s(type));
    }
  }
}

TEST(PlayerIdleFloor, IdleContextsAtTheFloorsFetchNothingAndChangeNothing) {
  const BandwidthTrace trace = BandwidthTrace::constant(3000.0);
  const auto& players = ex::comparison_players();
  ASSERT_EQ(players.size(), 8u);
  for (std::size_t i = 0; i < players.size(); ++i) {
    SCOPED_TRACE(players[i].label);
    const ex::ExperimentSetup setup = ex::comparison_setup(i, trace, "idle-floor");
    FloorCoverage coverage;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::unique_ptr<PlayerAdapter> probed = players[i].factory();
      const std::unique_ptr<PlayerAdapter> twin = players[i].factory();
      drive(setup, *probed, *twin, 1000 * (i + 1) + seed, 1500, coverage);
      if (HasFailure()) return;
    }
    EXPECT_GT(coverage.probes, 1000);
    EXPECT_GT(coverage.finished_type_probes, 100);
    if (players[i].label == "dashjs") {
      EXPECT_GT(coverage.dashjs_top_rung_probes, 50);
    }
  }
}

}  // namespace
}  // namespace demuxabr
