// Fleet simulator contract tests: stepping-API equivalence with the solo
// run() loop, determinism of whole-fleet runs (same seed => identical
// aggregate fingerprint, at any replication thread count), processor-sharing
// fairness across identical clients, churn slot accounting, and the
// population model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "experiments/sweep.h"
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

std::unique_ptr<PlayerAdapter> make_exo() {
  return std::make_unique<ExoPlayerModel>();
}

PlayerShare exo_share(double weight = 1.0) {
  return {"exoplayer", &make_exo, weight};
}

/// Small fleet config used throughout: short per-client budget keeps the
/// tests fast even when contention starves a client.
FleetConfig base_config(int clients, std::uint64_t seed = 7) {
  FleetConfig config;
  config.client_count = clients;
  config.seed = seed;
  config.players.push_back(exo_share());
  config.session.max_sim_time_s = 1800.0;
  return config;
}

TEST(SessionStepping, ManualLoopMatchesRun) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "stepping");

  ExoPlayerModel via_run;
  const SessionLog run_log = ex::run(setup, via_run);

  ExoPlayerModel via_steps;
  const Network network = Network::shared(setup.trace, setup.rtt_s);
  StreamingSession session(setup.content, setup.view, network, via_steps,
                           setup.session);
  session.start();
  while (!session.done()) {
    session.begin_step();
    session.advance_to(session.next_event_time());
  }
  const SessionLog step_log = session.finish();

  EXPECT_EQ(ex::log_fingerprint(run_log), ex::log_fingerprint(step_log));
}

TEST(SessionStepping, StartTimeOffsetsClockButNotStartupDelay) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "offset");

  ExoPlayerModel at_zero;
  const SessionLog base = ex::run(setup, at_zero);

  SessionConfig shifted_config = setup.session;
  shifted_config.start_time_s = 100.0;
  shifted_config.max_sim_time_s = 100.0 + setup.session.max_sim_time_s;
  ExoPlayerModel shifted_player;
  const Network network = Network::shared(setup.trace, setup.rtt_s);
  StreamingSession shifted(setup.content, setup.view, network, shifted_player,
                           shifted_config);
  const SessionLog log = shifted.run();

  EXPECT_TRUE(log.completed);
  // The clock is absolute; startup delay stays relative to the arrival.
  EXPECT_GE(log.end_time_s, 100.0);
  EXPECT_NEAR(log.startup_delay_s, base.startup_delay_s, 1e-6);
  ASSERT_FALSE(log.downloads.empty());
  EXPECT_GE(log.downloads.front().start_t, 100.0);
}

/// One session in the event-heap engine's call order on its own network:
/// registration (begin_step, run_idle_ticks, then the key: the next
/// non-tick event while ticks_can_run_late(), else the next local event,
/// and the links' earliest completion), then a visit at the key
/// (run_late_ticks, integrate_to, process_events).
SessionLog run_in_engine_order(StreamingSession& session, const Network& network) {
  session.start();
  while (!session.done()) {
    session.begin_step();
    session.run_idle_ticks(std::numeric_limits<double>::infinity());
    if (session.done()) break;
    const double local = session.ticks_can_run_late() ? session.next_nontick_event_time()
                                                      : session.next_local_event_time();
    const double t = std::min({local, network.video_link->earliest_completion_time(),
                               network.audio_link->earliest_completion_time()});
    if (!(t > session.now())) {
      ADD_FAILURE() << "key " << t << " does not advance past " << session.now();
      break;
    }
    session.run_late_ticks(t);
    if (session.done()) break;
    session.integrate_to(t);
    session.process_events();
  }
  return session.finish();
}

SessionLog run_solo(const ex::ExperimentSetup& setup, PlayerAdapter& player) {
  const Network network = Network::shared(setup.trace, setup.rtt_s);
  StreamingSession session(setup.content, setup.view, network, player, setup.session);
  return session.run();
}

SessionLog run_solo_in_engine_order(const ex::ExperimentSetup& setup, PlayerAdapter& player) {
  const Network network = Network::shared(setup.trace, setup.rtt_s);
  StreamingSession session(setup.content, setup.view, network, player, setup.session);
  return run_in_engine_order(session, network);
}

TEST(SessionStepping, EngineOrderMatchesRunForEveryComparisonPlayer) {
  // Quiet idle stretches (every player answers idle floors) and late
  // in-flight ticks (the ExoPlayer models, without series) must leave the
  // log exactly as run() writes it: to content end, and through seeks and
  // a cap that land between ticks.
  const BandwidthTrace trace = BandwidthTrace::constant(4000.0);
  const auto& players = ex::comparison_players();
  for (std::size_t i = 0; i < players.size(); ++i) {
    for (const bool series : {true, false}) {
      for (const bool cut_short : {false, true}) {
        SCOPED_TRACE(players[i].label + (series ? " series" : " no series") +
                     (cut_short ? " seeks+cap" : " to the end"));
        ex::ExperimentSetup setup = ex::comparison_setup(i, trace, "engine-order");
        setup.session.record_series = series;
        if (cut_short) {
          setup.session.seeks = {{60.0, 150.0}, {100.06, 20.0}};
          setup.session.max_sim_time_s = 200.03;
        }
        const std::unique_ptr<PlayerAdapter> solo = players[i].factory();
        const std::unique_ptr<PlayerAdapter> stepped = players[i].factory();
        const SessionLog expected = run_solo(setup, *solo);
        const SessionLog log = run_solo_in_engine_order(setup, *stepped);
        EXPECT_EQ(log.completed, !cut_short);
        EXPECT_EQ(ex::log_fingerprint(expected), ex::log_fingerprint(log));
      }
    }
  }
}

TEST(SessionStepping, QuietStretchEndsWithinKEpsOfContentEnd) {
  // Content end lands 0.5 ns after a tick, inside the kEps the completion
  // check allows: that tick completes the session, so it is not quiet.
  ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(5000.0), "keps-end");
  setup.session.record_series = false;
  ExoPlayerModel first;
  const SessionLog base = run_solo(setup, first);
  ASSERT_TRUE(base.completed);
  ASSERT_TRUE(base.stalls.empty());
  const double anchor = base.startup_delay_s;  // the session starts at 0
  const double duration = setup.content.duration_s();
  const double tick = std::ceil((anchor + duration) / 0.125) * 0.125;

  // Same chunks and sizes, each chunk lengthened so content end is the
  // tick plus 0.5 ns (chunk sizes, so download times, do not move).
  const int chunks = setup.content.num_chunks();
  const double chunk_s = (tick - anchor + 5e-10) / chunks;
  std::map<std::string, std::vector<ChunkInfo>> stretched;
  for (const MediaType type : {MediaType::kAudio, MediaType::kVideo}) {
    for (const TrackInfo& track : setup.content.ladder().tracks(type)) {
      std::vector<ChunkInfo> list = setup.content.chunks(track.id);
      for (ChunkInfo& chunk : list) chunk.duration_s = chunk_s;
      stretched[track.id] = std::move(list);
    }
  }
  setup.content = Content(setup.content.ladder(), chunk_s, std::move(stretched));
  ASSERT_GT(setup.content.duration_s() - (tick - anchor), 0.0);
  ASSERT_LT(setup.content.duration_s() - (tick - anchor), 1e-9);

  ExoPlayerModel solo;
  const SessionLog expected = run_solo(setup, solo);
  ASSERT_TRUE(expected.stalls.empty());
  ASSERT_EQ(expected.startup_delay_s, anchor);
  EXPECT_TRUE(expected.completed);
  EXPECT_EQ(expected.end_time_s, tick);
  ExoPlayerModel stepped;
  const SessionLog log = run_solo_in_engine_order(setup, stepped);
  EXPECT_EQ(log.end_time_s, tick);
  EXPECT_EQ(ex::log_fingerprint(expected), ex::log_fingerprint(log));
}

TEST(Fleet, SingleClientMatchesSoloSession) {
  // A fleet of one on a shared link is exactly the solo engine. Fleet
  // sessions record no series, so the solo side runs without them too.
  ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "solo");
  setup.session.record_series = false;
  ExoPlayerModel solo;
  const SessionLog solo_log = ex::run(setup, solo);

  const FleetConfig config = base_config(1);
  const FleetResult result =
      run_fleet(setup.content, setup.view, setup.trace, config);
  ASSERT_EQ(result.clients.size(), 1u);
  const SessionLog& fleet_log = result.clients[0].log;
  EXPECT_EQ(ex::log_fingerprint(solo_log), ex::log_fingerprint(fleet_log));
  EXPECT_TRUE(fleet_log.video_buffer_s.empty());
  EXPECT_TRUE(fleet_log.audio_buffer_s.empty());
  EXPECT_TRUE(fleet_log.bandwidth_estimate_kbps.empty());
  EXPECT_TRUE(fleet_log.achieved_throughput_kbps.empty());
  EXPECT_TRUE(fleet_log.selected_video_kbps.empty());
  EXPECT_TRUE(fleet_log.selected_audio_kbps.empty());
  // The §3.4 imbalance comes from SessionTotals, series or not.
  EXPECT_GT(fleet_log.mean_buffer_imbalance_s(), 0.0);
  EXPECT_EQ(fleet_log.mean_buffer_imbalance_s(), solo_log.mean_buffer_imbalance_s());
}

TEST(Fleet, SameSeedSameFingerprint) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "determinism");
  FleetConfig config = base_config(4, 21);
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.2;
  config.churn.leave_probability = 0.5;
  config.churn.min_watch_s = 20.0;
  config.churn.max_watch_s = 90.0;

  const BandwidthTrace bottleneck = BandwidthTrace::constant(2500.0);
  const FleetResult first = run_fleet(setup.content, setup.view, bottleneck, config);
  const FleetResult second = run_fleet(setup.content, setup.view, bottleneck, config);
  EXPECT_EQ(fleet_fingerprint(first), fleet_fingerprint(second));

  FleetConfig other_seed = config;
  other_seed.seed = 22;
  const FleetResult third =
      run_fleet(setup.content, setup.view, bottleneck, other_seed);
  EXPECT_NE(fleet_fingerprint(first), fleet_fingerprint(third));
}

TEST(Fleet, ReplicationsIdenticalAcrossThreadCounts) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(2000.0), "replications");
  FleetConfig config = base_config(2, 5);
  // Stochastic arrivals and churn: the seed must change the outcome, so the
  // different-seed sanity check below has teeth.
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.3;
  config.churn.leave_probability = 0.5;

  ReplicationOptions serial;
  serial.replications = 3;
  serial.threads = 1;
  const auto serial_reps =
      run_replications(setup.content, setup.view, setup.trace, config, serial);

  ReplicationOptions pooled = serial;
  pooled.threads = 4;
  const auto pooled_reps =
      run_replications(setup.content, setup.view, setup.trace, config, pooled);

  ASSERT_EQ(serial_reps.size(), 3u);
  ASSERT_EQ(pooled_reps.size(), 3u);
  for (std::size_t r = 0; r < serial_reps.size(); ++r) {
    EXPECT_EQ(serial_reps[r].seed, pooled_reps[r].seed);
    EXPECT_EQ(fleet_fingerprint(serial_reps[r].result),
              fleet_fingerprint(pooled_reps[r].result));
  }
  // Different seeds produce different fleets.
  EXPECT_NE(fleet_fingerprint(serial_reps[0].result),
            fleet_fingerprint(serial_reps[1].result));
}

TEST(Fleet, IdenticalClientsOnFlatLinkAreFair) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "fairness");
  const FleetConfig config = base_config(2);
  // Twice the solo capacity: the fair share per client is the solo link.
  const BandwidthTrace bottleneck = BandwidthTrace::constant(1800.0);
  const FleetResult result =
      run_fleet(setup.content, setup.view, bottleneck, config);

  ASSERT_EQ(result.clients.size(), 2u);
  const FleetMetrics metrics = compute_fleet_metrics(result);
  EXPECT_EQ(metrics.clients, 2);
  // Identical deterministic clients arriving together make identical
  // decisions: equal average bitrate (within a generous epsilon) and a Jain
  // index of ~1.
  EXPECT_NEAR(result.clients[0].qoe.avg_video_kbps,
              result.clients[1].qoe.avg_video_kbps, 10.0);
  EXPECT_GT(metrics.jain_fairness_video, 0.999);
  EXPECT_GT(metrics.jain_fairness_throughput, 0.999);
  EXPECT_GT(result.video_link.peak_flows, 1);  // they really contended
  EXPECT_EQ(result.video_link.residual_flows, 0);
}

TEST(Fleet, ContentionDegradesSelectedBitrate) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1200.0), "contention");
  const BandwidthTrace bottleneck = BandwidthTrace::constant(1200.0);

  const FleetResult alone =
      run_fleet(setup.content, setup.view, bottleneck, base_config(1));
  const FleetResult crowd =
      run_fleet(setup.content, setup.view, bottleneck, base_config(4));

  const FleetMetrics alone_metrics = compute_fleet_metrics(alone);
  const FleetMetrics crowd_metrics = compute_fleet_metrics(crowd);
  // Four clients on the same pipe cannot all sustain the solo bitrate.
  EXPECT_LT(crowd_metrics.video_kbps.mean, alone_metrics.video_kbps.mean);
  EXPECT_GE(crowd.video_link.peak_flows, alone.video_link.peak_flows);
}

TEST(Fleet, ChurnReleasesSharedLinkSlots) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(600.0), "churn");
  FleetConfig config = base_config(3, 11);
  config.churn.leave_probability = 1.0;  // everyone abandons
  config.churn.min_watch_s = 10.0;
  config.churn.max_watch_s = 30.0;

  const FleetResult result = run_fleet(setup.content, setup.view,
                                       BandwidthTrace::constant(1500.0), config);

  ASSERT_EQ(result.clients.size(), 3u);
  const FleetMetrics metrics = compute_fleet_metrics(result);
  EXPECT_EQ(metrics.departed_early, 3);
  for (const ClientResult& client : result.clients) {
    EXPECT_TRUE(client.departed_early);
    EXPECT_FALSE(client.log.completed);
    // Departure happens at the planned watch horizon, not at the cap.
    EXPECT_LE(client.log.end_time_s, client.arrival_s + 30.0 + 1.0);
  }
  // Every abandoned flow released its processor-sharing slot.
  EXPECT_GT(result.video_link.peak_flows, 0);
  EXPECT_EQ(result.video_link.residual_flows, 0);
}

/// Every client's video on one shared link and its audio on another: the
/// §4.1 different-servers scenario at fleet scale.
TopologySpec split_audio_spec(BandwidthTrace video, BandwidthTrace audio) {
  TopologySpec spec;
  const std::size_t video_link = spec.add_link("video-bottleneck", std::move(video));
  const std::size_t audio_link = spec.add_link("audio-bottleneck", std::move(audio));
  spec.video_assignment = {spec.add_path("video", {video_link})};
  spec.audio_assignment = {spec.add_path("audio", {audio_link})};
  return spec;
}

TEST(Fleet, SplitAudioPathTracksBothLinks) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1000.0), "split");
  FleetConfig config = base_config(2, 3);
  config.topology = split_audio_spec(BandwidthTrace::constant(2000.0),
                                     BandwidthTrace::constant(256.0));
  const FleetResult result = run_fleet(setup.content, setup.view,
                                       BandwidthTrace::constant(2000.0), config);

  EXPECT_TRUE(result.split_audio);
  ASSERT_EQ(result.links.size(), 2u);
  const LinkStats& video = result.links[0];
  const LinkStats& audio = result.links[1];
  EXPECT_GT(video.busy_s, 0.0);
  EXPECT_GT(audio.busy_s, 0.0);
  EXPECT_EQ(video.name, "video-bottleneck");
  EXPECT_EQ(audio.name, "audio-bottleneck");
  // Utilization is a fraction of offered capacity.
  EXPECT_GE(video.utilization(), 0.0);
  EXPECT_LE(video.utilization(), 1.0 + 1e-9);
  EXPECT_LE(audio.utilization(), 1.0 + 1e-9);
}

/// Run one config under both engines and require byte-identical outcomes:
/// every per-client chunk log and the whole-fleet fingerprint.
void expect_engines_identical(const ex::ExperimentSetup& setup,
                              const BandwidthTrace& bottleneck,
                              FleetConfig config) {
  config.engine = Engine::kBarrier;
  const FleetResult barrier =
      run_fleet(setup.content, setup.view, bottleneck, config);
  config.engine = Engine::kEventHeap;
  const FleetResult heap =
      run_fleet(setup.content, setup.view, bottleneck, config);

  ASSERT_EQ(barrier.clients.size(), heap.clients.size());
  for (std::size_t i = 0; i < barrier.clients.size(); ++i) {
    EXPECT_EQ(ex::log_fingerprint(barrier.clients[i].log),
              ex::log_fingerprint(heap.clients[i].log))
        << "client " << barrier.clients[i].id;
  }
  EXPECT_EQ(fleet_fingerprint(barrier), fleet_fingerprint(heap));
}

TEST(CrossEngine, IdenticalOnPaperTraceAcrossFleetSizes) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "cross-engine");
  for (const int n : {1, 2, 10, 50}) {
    SCOPED_TRACE("clients=" + std::to_string(n));
    FleetConfig config = base_config(n, 21);
    config.arrivals = ArrivalProcess::kPoisson;
    config.arrival_rate_per_s = 0.2;
    config.churn.leave_probability = 0.5;
    config.churn.min_watch_s = 20.0;
    config.churn.max_watch_s = 90.0;
    // Capacity scales with the fleet so large-N runs stay contended but
    // finite; the comparison is engine-vs-engine, not across N.
    const BandwidthTrace bottleneck =
        BandwidthTrace::constant(600.0 * static_cast<double>(n) + 1300.0);
    expect_engines_identical(setup, bottleneck, config);
  }
}

TEST(CrossEngine, IdenticalOnSplitAudioPath) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1000.0), "cross-split");
  FleetConfig config = base_config(4, 3);
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 7.0;

  config.topology = split_audio_spec(BandwidthTrace::constant(2000.0),
                                     BandwidthTrace::constant(256.0));

  config.engine = Engine::kBarrier;
  const FleetResult barrier = run_fleet(setup.content, setup.view,
                                        BandwidthTrace::constant(2000.0), config);
  config.engine = Engine::kEventHeap;
  const FleetResult heap = run_fleet(setup.content, setup.view,
                                     BandwidthTrace::constant(2000.0), config);

  ASSERT_EQ(heap.links.size(), 2u);
  EXPECT_GT(heap.links[1].busy_s, 0.0);
  EXPECT_EQ(fleet_fingerprint(barrier), fleet_fingerprint(heap));
}

TEST(CrossEngine, ZeroWatchChurnDepartsAtArrival) {
  // leave_at == arrival exactly: every client churns out before streaming a
  // single chunk. Both engines must agree and leave no residual flows.
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "zero-watch");
  FleetConfig config = base_config(6, 13);
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.5;
  config.churn.leave_probability = 1.0;
  config.churn.min_watch_s = 0.0;
  config.churn.max_watch_s = 0.0;

  for (const ClientPlan& plan : plan_population(config)) {
    EXPECT_EQ(plan.leave_at_s, plan.arrival_s);
  }

  for (const Engine engine : {Engine::kBarrier, Engine::kEventHeap}) {
    SCOPED_TRACE(engine == Engine::kBarrier ? "barrier" : "event_heap");
    config.engine = engine;
    const FleetResult result = run_fleet(
        setup.content, setup.view, BandwidthTrace::constant(1500.0), config);
    ASSERT_EQ(result.clients.size(), 6u);
    for (const ClientResult& client : result.clients) {
      EXPECT_TRUE(client.departed_early);
      EXPECT_FALSE(client.log.completed);
    }
    EXPECT_EQ(result.video_link.residual_flows, 0);
  }
  expect_engines_identical(setup, BandwidthTrace::constant(1500.0), config);
}

TEST(CrossEngine, ZeroSessionBudgetRetiresClientsAtArrival) {
  // The per-client sim cap equals the arrival time: every session is born at
  // its cap. Neither engine may hang, and no client streams anything.
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "zero-budget");
  FleetConfig config = base_config(5, 29);
  config.session.max_sim_time_s = 0.0;
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 1.0;

  for (const Engine engine : {Engine::kBarrier, Engine::kEventHeap}) {
    SCOPED_TRACE(engine == Engine::kBarrier ? "barrier" : "event_heap");
    config.engine = engine;
    const FleetResult result = run_fleet(
        setup.content, setup.view, BandwidthTrace::constant(1500.0), config);
    ASSERT_EQ(result.clients.size(), 5u);
    for (const ClientResult& client : result.clients) {
      EXPECT_FALSE(client.log.completed);
      EXPECT_EQ(client.log.downloads.size(), 0u);
      EXPECT_DOUBLE_EQ(client.log.end_time_s, client.arrival_s);
    }
    EXPECT_EQ(result.video_link.residual_flows, 0);
  }
  expect_engines_identical(setup, BandwidthTrace::constant(1500.0), config);
}

/// Fleet that sits idle most of the time: tick-aligned deterministic
/// arrivals (every 2 s, a multiple of the 0.125 s tick), an ExoPlayer /
/// dash.js / coordinated mix, and capacity far above the fleet's demand, so
/// sessions fill their buffers and then wait. The event-heap engine runs
/// such sessions' ticks inline (StreamingSession::run_idle_ticks); the
/// cases below put each of the loop's stopping rules on a tick.
FleetConfig idle_mix_config(int clients, std::uint64_t seed) {
  FleetConfig config = base_config(clients, seed);
  config.players.clear();
  config.players.push_back(exo_share());
  config.players.push_back(
      {"dashjs", [] { return std::make_unique<DashJsPlayerModel>(); }, 1.0});
  config.players.push_back(
      {"coordinated", [] { return std::make_unique<CoordinatedPlayer>(); }, 1.0});
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 2.0;
  return config;
}

const BandwidthTrace& ample_capacity() {
  static const BandwidthTrace trace = BandwidthTrace::constant(20000.0);
  return trace;
}

TEST(CrossEngine, IdleTicksWithZeroRtt) {
  // A request issued inside an idle run joins its link at its own clock:
  // with no RTT the session's heap key is that clock, so it registers in
  // that timestamp's registration phase, in client-id order.
  const ex::ExperimentSetup setup = ex::plain_dash(ample_capacity(), "idle-rtt0");
  FleetConfig config = idle_mix_config(6, 41);
  config.rtt_s = 0.0;
  expect_engines_identical(setup, ample_capacity(), config);
}

TEST(CrossEngine, IdleTicksStopAtChurnOnATick) {
  // Every client leaves 40 s after a tick-aligned arrival, so its departure
  // falls exactly on a tick, the idle run's horizon: that tick and the
  // departure must fire at the same instant, in the barrier engine's order.
  const ex::ExperimentSetup setup = ex::plain_dash(ample_capacity(), "idle-churn");
  FleetConfig config = idle_mix_config(6, 43);
  config.churn.leave_probability = 1.0;
  config.churn.min_watch_s = 40.0;
  config.churn.max_watch_s = 40.0;
  expect_engines_identical(setup, ample_capacity(), config);

  const FleetResult heap =
      run_fleet(setup.content, setup.view, ample_capacity(), config);
  ASSERT_EQ(heap.clients.size(), 6u);
  for (const ClientResult& client : heap.clients) {
    EXPECT_TRUE(client.departed_early) << "client " << client.id;
    EXPECT_EQ(client.log.end_time_s, client.arrival_s + 40.0) << "client " << client.id;
  }
}

TEST(CrossEngine, IdleTicksStopAtSimCapOnATick) {
  // The 100 s budget ends on a tick: an idle session fires the cap inside
  // its idle run and retires at its own clock, ahead of the engine's.
  const ex::ExperimentSetup setup = ex::plain_dash(ample_capacity(), "idle-cap");
  FleetConfig config = idle_mix_config(6, 47);
  config.session.max_sim_time_s = 100.0;
  expect_engines_identical(setup, ample_capacity(), config);

  const FleetResult heap =
      run_fleet(setup.content, setup.view, ample_capacity(), config);
  ASSERT_EQ(heap.clients.size(), 6u);
  for (const ClientResult& client : heap.clients) {
    EXPECT_FALSE(client.log.completed) << "client " << client.id;
    EXPECT_FALSE(client.departed_early) << "client " << client.id;
    EXPECT_EQ(client.log.end_time_s, client.arrival_s + 100.0) << "client " << client.id;
  }
  EXPECT_EQ(heap.end_time_s, heap.clients.back().arrival_s + 100.0);
  EXPECT_EQ(heap.video_link.residual_flows, 0);
}

TEST(CrossEngine, IdleTicksWithSeeksAndTelemetry) {
  // Seeks on ticks (a forward and a backward one, after every arrival) fire
  // inside idle runs, and the telemetry samples those runs write ahead of
  // the engine clock bin the same as the barrier engine's.
  const ex::ExperimentSetup setup = ex::plain_dash(ample_capacity(), "idle-seeks");
  FleetConfig config = idle_mix_config(6, 53);
  config.session.seeks = {{30.0, 200.0}, {70.0, 40.0}};
  config.telemetry.enabled = true;
  expect_engines_identical(setup, ample_capacity(), config);

  const FleetResult heap =
      run_fleet(setup.content, setup.view, ample_capacity(), config);
  ASSERT_TRUE(heap.timeline.has_value());
  for (const ClientResult& client : heap.clients) {
    EXPECT_EQ(client.log.seeks.size(), 2u) << "client " << client.id;
  }
}

TEST(Fleet, IdleTicksLeaveTheEventHeap) {
  // The idle loop must engage: on an ample link most ticks find nothing in
  // flight, so they run inline and at most half of all session event visits
  // cost a heap pop (one pop per visit when every tick goes through the heap).
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(100000.0), "idle-pops");
  const FleetConfig config = idle_mix_config(12, 5);
  const FleetResult result = run_fleet(setup.content, setup.view,
                                       BandwidthTrace::constant(100000.0), config);
  ASSERT_EQ(result.clients.size(), 12u);
  ASSERT_GT(result.steps, 0u);
  EXPECT_LE(result.profile.heap_pops, result.steps / 2)
      << result.profile.heap_pops << " pops for " << result.steps << " steps";
}

/// Forwards the classic PlayerAdapter calls and counts polls into `polls`.
/// With `forward_queries` false it answers neither idle_floor_s nor
/// observes_progress, like a decorator written before the engine asked
/// them: the event-heap engine then polls and keys every tick as it did
/// before it skipped any.
class CountingPlayer final : public PlayerAdapter {
 public:
  CountingPlayer(std::unique_ptr<PlayerAdapter> inner, bool forward_queries,
                 std::uint64_t& polls)
      : inner_(std::move(inner)), forward_queries_(forward_queries), polls_(polls) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void start(const ManifestView& view) override { inner_->start(view); }
  [[nodiscard]] int max_concurrent_downloads() const override {
    return inner_->max_concurrent_downloads();
  }
  std::optional<DownloadRequest> next_request(const PlayerContext& ctx) override {
    ++polls_;
    return inner_->next_request(ctx);
  }
  void on_progress(const ProgressSample& sample) override { inner_->on_progress(sample); }
  bool should_abandon(const ProgressSample& sample, const PlayerContext& ctx) override {
    return inner_->should_abandon(sample, ctx);
  }
  void on_chunk_complete(const ChunkCompletion& completion,
                         const PlayerContext& ctx) override {
    inner_->on_chunk_complete(completion, ctx);
  }
  [[nodiscard]] double bandwidth_estimate_kbps() const override {
    return inner_->bandwidth_estimate_kbps();
  }
  [[nodiscard]] double idle_floor_s(MediaType type) const override {
    return forward_queries_ ? inner_->idle_floor_s(type) : PlayerAdapter::idle_floor_s(type);
  }
  [[nodiscard]] bool observes_progress() const override {
    return forward_queries_ ? inner_->observes_progress()
                            : PlayerAdapter::observes_progress();
  }

 private:
  std::unique_ptr<PlayerAdapter> inner_;
  bool forward_queries_;
  std::uint64_t& polls_;
};

/// dash.js with abandonment off reads nothing from a progress sample, so
/// this wrapper forwards neither progress hook and answers false. The
/// progress-blind comparison models fetch one chunk at a time; this one
/// keeps two slots, so it has ticks with a flow in flight and a slot free.
class ProgressBlindDashJs final : public PlayerAdapter {
 public:
  ProgressBlindDashJs() : inner_(config()) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void start(const ManifestView& view) override { inner_.start(view); }
  [[nodiscard]] int max_concurrent_downloads() const override {
    return inner_.max_concurrent_downloads();
  }
  std::optional<DownloadRequest> next_request(const PlayerContext& ctx) override {
    return inner_.next_request(ctx);
  }
  void on_chunk_complete(const ChunkCompletion& completion,
                         const PlayerContext& ctx) override {
    inner_.on_chunk_complete(completion, ctx);
  }
  [[nodiscard]] double bandwidth_estimate_kbps() const override {
    return inner_.bandwidth_estimate_kbps();
  }
  [[nodiscard]] double idle_floor_s(MediaType type) const override {
    return inner_.idle_floor_s(type);
  }
  [[nodiscard]] bool observes_progress() const override { return false; }

 private:
  static DashJsConfig config() {
    DashJsConfig config;
    config.enable_abandonment = false;
    return config;
  }
  DashJsPlayerModel inner_;
};

struct CountedRun {
  FleetResult result;
  std::uint64_t polls = 0;
};

CountedRun run_counted(const ex::ExperimentSetup& setup, const BandwidthTrace& bottleneck,
                       FleetConfig config, bool forward_queries) {
  std::uint64_t polls = 0;
  for (PlayerShare& share : config.players) {
    share.factory = [inner = share.factory, forward_queries, &polls] {
      return std::make_unique<CountingPlayer>(inner(), forward_queries, polls);
    };
  }
  config.engine = Engine::kEventHeap;
  FleetResult result = run_fleet(setup.content, setup.view, bottleneck, config);
  return {std::move(result), polls};
}

/// The forwarding-decorator oracle. Players that answer both queries let
/// the event-heap engine skip polls (quiet idle ticks) and heap round-trips
/// (late in-flight ticks); the same fleet behind a decorator that answers
/// neither runs every tick as before. Both runs, and the barrier engine's,
/// must agree byte for byte and step for step, with fewer pops and polls.
void expect_skipped_ticks_invisible(const ex::ExperimentSetup& setup,
                                    const BandwidthTrace& bottleneck,
                                    const FleetConfig& config) {
  const CountedRun classic = run_counted(setup, bottleneck, config, false);
  const CountedRun skipping = run_counted(setup, bottleneck, config, true);
  FleetConfig barrier_config = config;
  barrier_config.engine = Engine::kBarrier;
  const FleetResult barrier =
      run_fleet(setup.content, setup.view, bottleneck, barrier_config);

  ASSERT_EQ(classic.result.clients.size(), skipping.result.clients.size());
  for (std::size_t i = 0; i < classic.result.clients.size(); ++i) {
    EXPECT_EQ(ex::log_fingerprint(classic.result.clients[i].log),
              ex::log_fingerprint(skipping.result.clients[i].log))
        << "client " << classic.result.clients[i].id;
  }
  EXPECT_EQ(fleet_fingerprint(classic.result), fleet_fingerprint(skipping.result));
  EXPECT_EQ(fleet_fingerprint(barrier), fleet_fingerprint(skipping.result));
  EXPECT_EQ(classic.result.steps, skipping.result.steps);
  EXPECT_LT(skipping.result.profile.heap_pops, classic.result.profile.heap_pops);
  EXPECT_LT(skipping.polls, classic.polls);
}

/// idle_mix_config plus the two-slot progress-blind dash.js.
FleetConfig skipping_mix_config(int clients, std::uint64_t seed) {
  FleetConfig config = idle_mix_config(clients, seed);
  config.players.push_back(
      {"dashjs-blind", [] { return std::make_unique<ProgressBlindDashJs>(); }, 1.0});
  return config;
}

TEST(SkippedTicks, InvisibleWithChurnAndTheCapOnATick) {
  // Tick-aligned arrivals: half the clients leave 40 s in, on a tick, and
  // the 100 s budget ends on a tick.
  const BandwidthTrace bottleneck = BandwidthTrace::constant(5000.0);
  const ex::ExperimentSetup setup = ex::plain_dash(bottleneck, "skip-churn");
  FleetConfig config = skipping_mix_config(12, 61);
  config.churn.leave_probability = 0.5;
  config.churn.min_watch_s = 40.0;
  config.churn.max_watch_s = 40.0;
  config.session.max_sim_time_s = 100.0;
  expect_skipped_ticks_invisible(setup, bottleneck, config);
}

TEST(SkippedTicks, InvisibleWithSeeksAndTelemetry) {
  // Seeks on a tick and between ticks, and a budget that ends between
  // ticks: each must cut an idle stretch short at its own instant.
  const BandwidthTrace bottleneck = BandwidthTrace::constant(5000.0);
  const ex::ExperimentSetup setup = ex::plain_dash(bottleneck, "skip-seeks");
  FleetConfig config = skipping_mix_config(12, 67);
  config.session.seeks = {{30.0, 200.0}, {50.06, 12.0}, {70.0, 40.0}};
  config.session.max_sim_time_s = 110.03;
  config.telemetry.enabled = true;
  expect_skipped_ticks_invisible(setup, bottleneck, config);
}

TEST(SkippedTicks, InvisibleWithZeroRttSplitAudioAndACachedChain) {
  const BandwidthTrace video = BandwidthTrace::constant(5000.0);
  const ex::ExperimentSetup setup = ex::plain_dash(video, "skip-topology");
  FleetConfig config = skipping_mix_config(12, 71);
  config.rtt_s = 0.0;
  config.session.max_sim_time_s = 150.0;
  {
    SCOPED_TRACE("split audio");
    config.topology = split_audio_spec(video, BandwidthTrace::constant(2000.0));
    expect_skipped_ticks_invisible(setup, video, config);
  }
  {
    SCOPED_TRACE("cached chain");
    TopologySpec spec;
    const std::size_t access = spec.add_link("access", BandwidthTrace::constant(5000.0));
    const std::size_t core = spec.add_link("core", BandwidthTrace::constant(3000.0));
    spec.add_path("chain", {access, core});
    spec.links[access].cache = CacheSpec{0, -1};
    config.topology = spec;
    expect_skipped_ticks_invisible(setup, video, config);
  }
}

TEST(Fleet, NonPositiveSamplingIntervalIsRejected) {
  // A sampling tick that never advances would re-key a session at the same
  // time forever. The session constructor refuses it, so both engines throw
  // at the first admission instead of hanging.
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(2000.0), "bad-delta");
  FleetConfig config = base_config(2);
  config.session.max_sim_time_s = 20.0;
  for (const Engine engine : {Engine::kBarrier, Engine::kEventHeap}) {
    for (const double delta : {0.0, -0.125}) {
      SCOPED_TRACE(delta);
      config.engine = engine;
      config.session.delta_s = delta;
      EXPECT_THROW(run_fleet(setup.content, setup.view,
                             BandwidthTrace::constant(2000.0), config),
                   std::invalid_argument);
    }
  }
}

TEST(Population, DeterministicPlansAndOrderedArrivals) {
  FleetConfig config;
  config.client_count = 50;
  config.seed = 99;
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 1.0;
  config.players.push_back(exo_share(0.7));
  config.players.push_back(
      {"dashjs",
       [] { return std::make_unique<DashJsPlayerModel>(); },
       0.3});
  config.churn.leave_probability = 0.25;

  const auto first = plan_population(config);
  const auto second = plan_population(config);
  ASSERT_EQ(first.size(), 50u);
  bool saw_both_players = false;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].arrival_s, second[i].arrival_s);
    EXPECT_EQ(first[i].player_index, second[i].player_index);
    EXPECT_EQ(first[i].leave_at_s, second[i].leave_at_s);
    if (i > 0) {
      EXPECT_GE(first[i].arrival_s, first[i - 1].arrival_s);
      if (first[i].player_index != first[i - 1].player_index) saw_both_players = true;
    }
    if (first[i].leave_at_s < first[i].arrival_s) {
      ADD_FAILURE() << "client " << i << " leaves before arriving";
    }
  }
  EXPECT_TRUE(saw_both_players);
}

TEST(Population, SimultaneousArrivalsAllZero) {
  FleetConfig config;
  config.client_count = 5;
  config.players.push_back(exo_share());
  for (const ClientPlan& plan : plan_population(config)) {
    EXPECT_EQ(plan.arrival_s, 0.0);
    EXPECT_TRUE(std::isinf(plan.leave_at_s));
  }
}

TEST(Population, RejectsConfigsItCannotExpand) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(3000.0), "bad-population");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, FleetConfig>> cases;
  const auto add = [&cases](std::string what, FleetConfig config) {
    cases.emplace_back(std::move(what), std::move(config));
  };
  FleetConfig no_players = base_config(6);
  no_players.players.clear();
  add("no players", no_players);
  add("negative client_count", base_config(-1));
  for (const double rate : {0.0, -1.0, nan, inf}) {
    FleetConfig config = base_config(6);
    config.arrivals = ArrivalProcess::kPoisson;
    config.arrival_rate_per_s = rate;
    add(format("poisson rate %g", rate), config);
  }
  for (const double interval : {-1.0, nan, inf}) {
    FleetConfig config = base_config(6);
    config.arrivals = ArrivalProcess::kDeterministic;
    config.arrival_interval_s = interval;
    add(format("deterministic interval %g", interval), config);
  }
  for (const double probability : {-0.1, 1.5, nan}) {
    FleetConfig config = base_config(6);
    config.churn.leave_probability = probability;
    add(format("leave probability %g", probability), config);
  }
  for (const auto& [min_s, max_s] : std::vector<std::pair<double, double>>{
           {120.0, 30.0}, {-1.0, 30.0}, {nan, 30.0}, {30.0, inf}}) {
    FleetConfig config = base_config(6);
    config.churn.leave_probability = 0.5;
    config.churn.min_watch_s = min_s;
    config.churn.max_watch_s = max_s;
    add(format("watch window [%g, %g]", min_s, max_s), config);
  }

  // Three disjoint chains: at 2 threads run_fleet takes the shard runner.
  TopologySpec chains;
  for (int c = 0; c < 3; ++c) {
    const std::size_t edge =
        chains.add_link(format("edge-%d", c), BandwidthTrace::constant(3000.0));
    const std::size_t core =
        chains.add_link(format("core-%d", c), BandwidthTrace::constant(3000.0));
    chains.add_path(format("chain-%d", c), {edge, core});
  }
  chains.video_assignment = TopologySpec::block_assignment(3, 2);

  ReplicationOptions replications;
  replications.replications = 2;
  replications.threads = 2;
  for (const auto& [what, config] : cases) {
    SCOPED_TRACE(what);
    EXPECT_THROW(plan_population(config), std::invalid_argument);
    EXPECT_THROW(run_fleet(setup.content, setup.view, setup.trace, config),
                 std::invalid_argument);
    FleetConfig sharded = config;
    sharded.topology = chains;
    sharded.threads = 2;
    EXPECT_THROW(run_fleet(setup.content, setup.view, setup.trace, sharded),
                 std::invalid_argument);
    EXPECT_THROW(run_replications(setup.content, setup.view, setup.trace, config,
                                  replications),
                 std::invalid_argument);
  }
}

TEST(Fleet, MixedPlayerPopulationRuns) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "mixed");
  FleetConfig config = base_config(4, 17);
  config.players.clear();
  config.players.push_back(exo_share(0.5));
  config.players.push_back(
      {"coordinated",
       [] { return std::make_unique<CoordinatedPlayer>(); },
       0.5});
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 5.0;

  const FleetResult result = run_fleet(setup.content, setup.view,
                                       BandwidthTrace::constant(3000.0), config);
  ASSERT_EQ(result.clients.size(), 4u);
  for (const ClientResult& client : result.clients) {
    EXPECT_TRUE(client.log.completed) << "client " << client.id;
  }
  const FleetMetrics metrics = compute_fleet_metrics(result);
  EXPECT_EQ(metrics.completed, 4);
  EXPECT_GT(metrics.video_kbps.mean, 0.0);
  EXPECT_GT(result.steps, 0u);
}

}  // namespace
}  // namespace demuxabr::fleet
