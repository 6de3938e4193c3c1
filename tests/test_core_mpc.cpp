#include "core/mpc_abr.h"

#include <gtest/gtest.h>

#include "core/compliance.h"
#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "manifest/builder.h"
#include "media/content.h"

namespace demuxabr {
namespace {

namespace ex = demuxabr::experiments;

std::vector<ComboView> drama_staircase() {
  const Content content = make_drama_content();
  CurationPolicy policy;
  policy.device.screen = DeviceProfile::Screen::kTv;
  DashBuildOptions options;
  options.allowed_combinations = curate_staircase(content.ladder(), policy);
  return view_from_mpd(build_dash_mpd(content, options)).combos_sorted();
}

TEST(MpcAbr, NoEstimateMeansLowestCombination) {
  MpcJointAbr mpc(drama_staircase());
  EXPECT_EQ(mpc.decide(0.0, 0.0, 4.0), 0u);
}

TEST(MpcAbr, LowBufferForcesConservativeChoice) {
  MpcJointAbr mpc(drama_staircase());
  const std::size_t low_buffer = mpc.decide(900.0, 1.0, 4.0);
  MpcJointAbr mpc2(drama_staircase());
  const std::size_t high_buffer = mpc2.decide(900.0, 30.0, 4.0);
  EXPECT_LE(low_buffer, high_buffer);
  // At 1 s of buffer, anything that downloads slower than real time would
  // stall immediately; the plan must stay sustainable.
  EXPECT_LE(mpc.requirement_kbps(low_buffer), 0.85 * 900.0 + 1e-9);
}

TEST(MpcAbr, HighBufferUnlocksHigherQuality) {
  MpcJointAbr mpc(drama_staircase());
  const std::size_t index = mpc.decide(900.0, 30.0, 4.0);
  // With 30 s of cushion the plan can spend buffer on quality beyond the
  // strictly sustainable rung.
  EXPECT_GE(mpc.requirement_kbps(index), 600.0);
}

TEST(MpcAbr, RebufferPenaltyPreventsOverreach) {
  MpcConfig config;
  config.rebuffer_penalty_kbps = 1e9;  // effectively forbid predicted stalls
  MpcJointAbr mpc(drama_staircase(), config);
  const std::size_t index = mpc.decide(900.0, 4.0, 4.0);
  // Per-chunk download time must not exceed the chunk duration by more than
  // the buffer can absorb over the horizon.
  const double per_chunk_s = mpc.requirement_kbps(index) * 4.0 / (0.85 * 900.0);
  EXPECT_LE((per_chunk_s - 4.0) * config.horizon_chunks, 4.0 + 1e-9);
}

TEST(MpcAbr, PlanScorePenalizesSwitches) {
  MpcConfig config;
  config.switch_penalty = 10.0;
  MpcJointAbr mpc(drama_staircase(), config);
  const double stay = mpc.plan_score(2, 900.0, 20.0, 4.0, /*previous=*/2);
  const double move = mpc.plan_score(2, 900.0, 20.0, 4.0, /*previous=*/0);
  EXPECT_GT(stay, move);
}

TEST(MpcAbr, HorizonScalesQualityTerm) {
  MpcConfig short_horizon;
  short_horizon.horizon_chunks = 1;
  MpcConfig long_horizon;
  long_horizon.horizon_chunks = 10;
  MpcJointAbr a(drama_staircase(), short_horizon);
  MpcJointAbr b(drama_staircase(), long_horizon);
  EXPECT_LT(a.plan_score(3, 900.0, 20.0, 4.0, 3), b.plan_score(3, 900.0, 20.0, 4.0, 3));
}

TEST(MpcCoordinated, SessionCompletesWithoutStalls) {
  auto setup = ex::bestpractice_dash(BandwidthTrace::constant(900.0), "mpc");
  CoordinatedConfig config;
  config.algorithm = AbrAlgorithm::kMpc;
  CoordinatedPlayer player(config);
  EXPECT_EQ(player.name(), "coordinated-mpc");
  const SessionLog log = ex::run(setup, player);
  EXPECT_TRUE(log.completed);
  EXPECT_EQ(log.stall_count(), 0u);
}

TEST(MpcCoordinated, StaysOnManifest) {
  for (const char* trace_name : {"a", "b"}) {
    auto setup = ex::bestpractice_dash(
        trace_name[0] == 'a' ? ex::varying_600_trace() : BandwidthTrace::constant(1500.0),
        "mpc");
    CoordinatedConfig config;
    config.algorithm = AbrAlgorithm::kMpc;
    CoordinatedPlayer player(config);
    const SessionLog log = ex::run(setup, player);
    EXPECT_TRUE(check_compliance(log, setup.allowed).compliant()) << trace_name;
  }
}

TEST(MpcCoordinated, ReachesHigherQualityThanHysteresisOnSteadyLink) {
  auto setup = ex::bestpractice_dash(BandwidthTrace::constant(900.0), "mpc");
  CoordinatedConfig mpc_config;
  mpc_config.algorithm = AbrAlgorithm::kMpc;
  CoordinatedPlayer mpc_player(mpc_config);
  const QoeReport mpc_qoe = compute_qoe(ex::run(setup, mpc_player));

  CoordinatedPlayer rate_player;
  const QoeReport rate_qoe = compute_qoe(ex::run(setup, rate_player));

  EXPECT_GE(mpc_qoe.avg_video_kbps + mpc_qoe.avg_audio_kbps,
            rate_qoe.avg_video_kbps + rate_qoe.avg_audio_kbps);
}

TEST(MpcCoordinated, SurvivesBurstyTraceWithoutShakaStyleCollapse) {
  auto setup = ex::bestpractice_dash(ex::shaka_varying_600_trace(), "mpc");
  CoordinatedConfig config;
  config.algorithm = AbrAlgorithm::kMpc;
  CoordinatedPlayer player(config);
  const SessionLog log = ex::run(setup, player);
  EXPECT_TRUE(log.completed);
  EXPECT_LT(log.total_stall_s(), 20.0);  // Shaka logs 100+ s here
}

class MpcEstimateSweep : public ::testing::TestWithParam<double> {};

TEST_P(MpcEstimateSweep, DecisionIsMonotoneInEstimate) {
  // Higher estimates never pick a lower combination (same buffer state).
  std::size_t previous = 0;
  for (double estimate : {200.0, 400.0, 600.0, 900.0, 1500.0, 3000.0}) {
    MpcJointAbr mpc(drama_staircase());
    const std::size_t index = mpc.decide(estimate, GetParam(), 4.0);
    EXPECT_GE(index, previous) << estimate;
    previous = index;
  }
}

INSTANTIATE_TEST_SUITE_P(Buffers, MpcEstimateSweep,
                         ::testing::Values(2.0, 8.0, 15.0, 30.0));

}  // namespace
}  // namespace demuxabr
