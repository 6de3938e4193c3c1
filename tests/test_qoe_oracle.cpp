// compute_qoe and the SessionLog accessors read SessionTotals; these tests
// hold them to the walks over the record and selection vectors
// (qoe_oracle.h) on logs the solo golden battery does not cover: every
// comparison player cut off mid-content by the sim-time cap, and every
// client of a full-log fleet with churn. Cut-off sessions leave their tail
// slots empty, which is where the fill-boundary correction and the
// off-manifest count of never-downloaded chunks come in.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "core/compliance.h"
#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "experiments/sweep.h"
#include "fleet/scheduler.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "qoe_oracle.h"

namespace demuxabr {
namespace {

namespace ex = demuxabr::experiments;

struct CappedSession {
  ex::ExperimentSetup setup;
  SessionLog log;
};

/// One comparison player's session on its comparison setup over the
/// varying-600 trace, stopped by the sim-time cap at 90 s of 300.
CappedSession capped_session(std::size_t player) {
  CappedSession capped;
  capped.setup = ex::comparison_setup(player, ex::varying_600_trace(), "capped");
  capped.setup.session.max_sim_time_s = 90.0;
  const std::unique_ptr<PlayerAdapter> adapter = ex::comparison_players()[player].factory();
  capped.log = ex::run(capped.setup, *adapter);
  return capped;
}

TEST(QoeOracle, CappedSessionsMatchTheWalk) {
  const auto& players = ex::comparison_players();
  for (std::size_t p = 0; p < players.size(); ++p) {
    SCOPED_TRACE(players[p].label);
    const auto [setup, log] = capped_session(p);
    ASSERT_FALSE(log.completed);
    ASSERT_LT(log.totals.video_chunks, log.total_chunks);
    expect_matches_walk(log, setup.content.ladder());
  }
}

// A slot the session never downloaded holds no combination, so it cannot be
// off the manifest: compute_qoe counts exactly what check_compliance does.
TEST(QoeOracle, OffManifestChunksAreComplianceViolations) {
  const auto& players = ex::comparison_players();
  int violations = 0;
  for (std::size_t p = 0; p < players.size(); ++p) {
    SCOPED_TRACE(players[p].label);
    const auto [setup, log] = capped_session(p);
    // Plain-DASH setups publish no combination list; hold them to Table 2's
    // curated subset instead.
    const std::vector<AvCombination> allowed =
        setup.allowed.empty() ? curated_subset(setup.content.ladder()) : setup.allowed;
    const ComplianceReport compliance = check_compliance(log, allowed);
    EXPECT_GT(compliance.total_chunks, 0);
    EXPECT_EQ(compute_qoe(log, &allowed).off_manifest_chunks, compliance.violating_chunks);
    violations += compliance.violating_chunks;
  }
  EXPECT_GT(violations, 0);
}

std::unique_ptr<PlayerAdapter> make_exo() { return std::make_unique<ExoPlayerModel>(); }
std::unique_ptr<PlayerAdapter> make_dashjs() { return std::make_unique<DashJsPlayerModel>(); }
std::unique_ptr<PlayerAdapter> make_coordinated() {
  return std::make_unique<CoordinatedPlayer>();
}

TEST(QoeOracle, ChurnFleetClientsMatchTheWalk) {
  const ex::ExperimentSetup setup = ex::plain_dash(ex::varying_600_trace(), "churn");
  fleet::FleetConfig config;
  config.client_count = 40;
  config.seed = 19;
  config.players = {{"exoplayer", &make_exo, 0.5},
                    {"dashjs", &make_dashjs, 0.25},
                    {"coordinated", &make_coordinated, 0.25}};
  config.arrivals = fleet::ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.5;
  config.churn.leave_probability = 0.4;
  config.churn.min_watch_s = 20.0;
  config.churn.max_watch_s = 120.0;
  config.session.max_sim_time_s = 1800.0;
  const fleet::FleetResult result = fleet::run_fleet(
      setup.content, setup.view, BandwidthTrace::constant(16000.0), config);
  ASSERT_EQ(result.clients.size(), 40u);
  int incomplete = 0;
  for (const fleet::ClientResult& client : result.clients) {
    SCOPED_TRACE(testing::Message() << "client " << client.id << " " << client.player);
    if (!client.log.completed) ++incomplete;
    expect_matches_walk(client.log, setup.content.ladder());
    // The fleet's own report is the same compute_qoe.
    EXPECT_EQ(client.qoe.qoe_score, compute_qoe(client.log).qoe_score);
  }
  EXPECT_GT(incomplete, 0);
}

}  // namespace
}  // namespace demuxabr
