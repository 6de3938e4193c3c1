// The SweepRunner determinism contract: the same job matrix must yield
// byte-identical SessionLogs at 1, 2, and 8 threads, in job order, matching
// a plain serial loop.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/coordinated_player.h"
#include "core/muxed_player.h"
#include "experiments/scenarios.h"
#include "experiments/sweep.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "players/shaka.h"

namespace demuxabr {
namespace {

namespace ex = demuxabr::experiments;

// --- SweepRunner ---

/// A small but diverse matrix: demuxed commercial models, the muxed
/// baseline and the coordinated family, over fixed and varying traces.
std::vector<ex::SweepJob> determinism_matrix() {
  std::vector<ex::SweepJob> jobs;
  auto add = [&jobs](const std::string& id, ex::ExperimentSetup setup,
                     PlayerFactory factory) {
    ex::SweepJob job;
    job.id = id;
    job.player = id;
    job.trace = setup.id;
    job.setup = std::make_shared<const ex::ExperimentSetup>(std::move(setup));
    job.make_player = std::move(factory);
    jobs.push_back(std::move(job));
  };
  add("exo/fig2a", ex::fig2a_exo_dash_audio_b(),
      []() -> std::unique_ptr<PlayerAdapter> {
        return std::make_unique<ExoPlayerModel>();
      });
  add("shaka/fig4b", ex::fig4b_shaka_hall_varying(),
      []() -> std::unique_ptr<PlayerAdapter> {
        return std::make_unique<ShakaPlayerModel>();
      });
  add("dashjs/fig5", ex::fig5_dashjs_700(),
      []() -> std::unique_ptr<PlayerAdapter> {
        return std::make_unique<DashJsPlayerModel>();
      });
  add("muxed/fixed-700k", ex::plain_dash(BandwidthTrace::constant(700.0), "fixed-700k"),
      []() -> std::unique_ptr<PlayerAdapter> { return std::make_unique<MuxedPlayer>(); });
  add("coordinated/varying-600k",
      ex::bestpractice_dash(ex::varying_600_trace(), "varying-600k"),
      []() -> std::unique_ptr<PlayerAdapter> {
        return std::make_unique<CoordinatedPlayer>();
      });
  add("coordinated-mpc/varying-600k",
      ex::bestpractice_dash(ex::varying_600_trace(), "varying-600k"),
      []() -> std::unique_ptr<PlayerAdapter> {
        CoordinatedConfig config;
        config.algorithm = AbrAlgorithm::kMpc;
        return std::make_unique<CoordinatedPlayer>(config);
      });
  return jobs;
}

TEST(SweepRunner, SerialPathMatchesDirectLoop) {
  const std::vector<ex::SweepJob> jobs = determinism_matrix();

  // The historical serial loop, run by hand.
  std::vector<std::string> direct;
  for (const ex::SweepJob& job : jobs) {
    auto player = job.make_player();
    direct.push_back(ex::log_fingerprint(ex::run(*job.setup, *player)));
  }

  ex::SweepOptions options;
  options.threads = 1;
  const ex::SweepResult result = ex::SweepRunner(options).run(jobs);
  ASSERT_EQ(result.jobs.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(ex::log_fingerprint(result.jobs[i].log), direct[i])
        << "job " << jobs[i].id << " diverged from the serial loop";
  }
}

TEST(SweepRunner, ByteIdenticalLogsAcrossThreadCounts) {
  const std::vector<ex::SweepJob> jobs = determinism_matrix();

  ex::SweepOptions serial_options;
  serial_options.threads = 1;
  const ex::SweepResult serial = ex::SweepRunner(serial_options).run(jobs);
  ASSERT_EQ(serial.jobs.size(), jobs.size());

  for (const int threads : {2, 8}) {
    ex::SweepOptions options;
    options.threads = threads;
    const ex::SweepResult parallel = ex::SweepRunner(options).run(jobs);
    ASSERT_EQ(parallel.jobs.size(), jobs.size());
    EXPECT_EQ(parallel.summary.threads, threads);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // Results in job order regardless of completion order…
      EXPECT_EQ(parallel.jobs[i].id, jobs[i].id);
      // …and each SessionLog byte-identical to the serial run: metrics,
      // records, selections and every time series.
      EXPECT_EQ(ex::log_fingerprint(parallel.jobs[i].log),
                ex::log_fingerprint(serial.jobs[i].log))
          << "job " << jobs[i].id << " not deterministic at threads=" << threads;
    }
  }
}

TEST(SweepRunner, SummaryAndPerJobMetricsArePopulated) {
  const std::vector<ex::SweepJob> jobs = determinism_matrix();
  ex::SweepOptions options;
  options.threads = 2;
  const ex::SweepResult result = ex::SweepRunner(options).run(jobs);

  EXPECT_EQ(result.summary.job_count, jobs.size());
  EXPECT_GT(result.summary.wall_s, 0.0);
  EXPECT_GT(result.summary.sessions_per_s, 0.0);
  EXPECT_GT(result.summary.simulated_per_wall, 0.0);

  double simulated = 0.0;
  for (const ex::SweepJobResult& job : result.jobs) {
    EXPECT_GE(job.wall_s, 0.0);
    EXPECT_TRUE(job.completed);
    EXPECT_GT(job.log.end_time_s, 0.0);
    simulated += job.log.end_time_s;
    // QoE was computed from the job's own log.
    const QoeReport expected = compute_qoe(job.log);
    EXPECT_DOUBLE_EQ(job.qoe.avg_video_kbps, expected.avg_video_kbps);
  }
  EXPECT_DOUBLE_EQ(result.summary.simulated_s, simulated);
}

TEST(SweepRunner, FingerprintDistinguishesDifferentLogs) {
  const std::vector<ex::SweepJob> jobs = determinism_matrix();
  ex::SweepOptions options;
  options.threads = 1;
  const ex::SweepResult result = ex::SweepRunner(options).run(jobs);
  // Different players / setups must not collide to one fingerprint.
  EXPECT_NE(ex::log_fingerprint(result.jobs[0].log),
            ex::log_fingerprint(result.jobs[1].log));
}

TEST(SweepRunner, ComparisonMatrixSharesSetupsAcrossJobs) {
  const std::vector<ex::SweepJob> jobs = ex::comparison_matrix();
  ASSERT_FALSE(jobs.empty());
  // 8 players x 8 traces.
  EXPECT_EQ(jobs.size(), ex::comparison_players().size() * ex::comparison_traces().size());
  // Players on the same setup kind share one ExperimentSetup object per
  // trace (no throwaway Content copies): exo-legacy and exoplayer both run
  // plain DASH.
  EXPECT_EQ(jobs[0].setup.get(), jobs[1].setup.get());
  // Shaka runs its own manifest.
  EXPECT_NE(jobs[0].setup.get(), jobs[2].setup.get());
}

}  // namespace
}  // namespace demuxabr
