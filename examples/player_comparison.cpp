// Reproduce the paper's per-player experiments (§3) and the §4 comparison:
// run each player model through its figure's scenario, print the selection
// timelines and stall accounting, then sweep all players across the standard
// traces and print the comparison table.
#include <cstdio>
#include <memory>

#include "core/compliance.h"
#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "experiments/sweep.h"
#include "experiments/tables.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "players/shaka.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;

void report(const ex::ExperimentSetup& setup, const SessionLog& log) {
  const QoeReport qoe =
      compute_qoe(log, setup.allowed.empty() ? nullptr : &setup.allowed);
  std::printf("== %s: %s ==\n", setup.id.c_str(), setup.description.c_str());
  std::printf("%s", summarize(log, qoe).c_str());
  std::printf("  timeline: %s\n\n", ex::render_selection_timeline(log).c_str());
}

}  // namespace

int main() {
  // --- §3.2 ExoPlayer ---
  {
    auto setup = ex::fig2a_exo_dash_audio_b();
    ExoPlayerModel player;
    report(setup, ex::run(setup, player));
  }
  {
    auto setup = ex::fig2b_exo_dash_audio_c();
    ExoPlayerModel player;
    report(setup, ex::run(setup, player));
  }
  {
    auto setup = ex::fig3_exo_hls_a3_first();
    ExoPlayerModel player;
    report(setup, ex::run(setup, player));
  }
  {
    auto setup = ex::fig3x_exo_hls_a1_first_5mbps();
    ExoPlayerModel player;
    report(setup, ex::run(setup, player));
  }
  // --- §3.3 Shaka ---
  {
    auto setup = ex::fig4a_shaka_hall_1mbps();
    ShakaPlayerModel player;
    report(setup, ex::run(setup, player));
  }
  {
    auto setup = ex::fig4b_shaka_hall_varying();
    ShakaPlayerModel player;
    report(setup, ex::run(setup, player));
  }
  // --- §3.4 dash.js ---
  {
    auto setup = ex::fig5_dashjs_700();
    DashJsPlayerModel player;
    report(setup, ex::run(setup, player));
  }
  // --- §4 coordinated player on the same scenarios ---
  {
    auto setup = ex::bestpractice_dash(ex::varying_600_trace(), "bp-varying600");
    CoordinatedPlayer player;
    report(setup, ex::run(setup, player));
  }

  // --- Cross-player sweep over the standard traces (parallel fan-out via
  // --- SweepRunner; per-job results are identical at any thread count) ---
  const ex::SweepResult sweep = ex::SweepRunner().run(ex::comparison_matrix());
  std::printf("%s\n",
              ex::render_comparison_table(ex::comparison_rows(sweep)).c_str());
  std::printf("sweep: %zu sessions in %.2fs wall (%d threads, %.1f sessions/s, "
              "%.0f sim-s per wall-s)\n",
              sweep.summary.job_count, sweep.summary.wall_s, sweep.summary.threads,
              sweep.summary.sessions_per_s, sweep.summary.simulated_per_wall);
  return 0;
}
