// Figure 2 reproduction: ExoPlayer over DASH at a fixed 900 kbps link.
//   (a) audio set B (32/64/128 kbps):   steady state must be V3+B2, while
//       the better V3+B3 (declared 601 kbps) is excluded by construction;
//   (b) audio set C (196/384/768 kbps): steady state must be V2+C2 (low
//       video + high audio), while V3+C1 (declared 669) is excluded.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "experiments/scenarios.h"
#include "experiments/tables.h"
#include "players/exoplayer.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;

void print_once(const char* tag, const ex::ExperimentSetup& setup, const SessionLog& log) {
  static bool printed[2] = {false, false};
  const int slot = tag[4] == 'a' ? 0 : 1;
  if (printed[slot]) return;
  printed[slot] = true;
  const QoeReport qoe = compute_qoe(log);
  std::printf("=== %s: %s ===\n%s  timeline: %s\n\n", tag, setup.description.c_str(),
              summarize(log, qoe).c_str(),
              ex::render_selection_timeline(log).c_str());
}

void run_fig2(benchmark::State& state, ex::ExperimentSetup (*make_setup)(),
              const char* tag, const char* expected_video, const char* expected_audio) {
  const ex::ExperimentSetup setup = make_setup();
  double steady_chunks = 0.0;
  double stall_s = 0.0;
  for (auto _ : state) {
    ExoPlayerModel player;
    const SessionLog log = ex::run(setup, player);
    print_once(tag, setup, log);
    steady_chunks = 0.0;
    for (std::size_t i = 0; i < log.video_selection.size(); ++i) {
      if (log.video_selection[i] == expected_video &&
          log.audio_selection[i] == expected_audio) {
        steady_chunks += 1.0;
      }
    }
    stall_s = log.total_stall_s();
    benchmark::DoNotOptimize(log.end_time_s);
  }
  state.counters["steady_combo_chunks"] = steady_chunks;  // of 75
  state.counters["rebuffer_s"] = stall_s;
}

void BM_Fig2a_AudioSetB(benchmark::State& state) {
  run_fig2(state, &ex::fig2a_exo_dash_audio_b, "fig2a", "V3", "B2");
}
BENCHMARK(BM_Fig2a_AudioSetB)->Unit(benchmark::kMillisecond);

void BM_Fig2b_AudioSetC(benchmark::State& state) {
  run_fig2(state, &ex::fig2b_exo_dash_audio_c, "fig2b", "V2", "C2");
}
BENCHMARK(BM_Fig2b_AudioSetC)->Unit(benchmark::kMillisecond);

// The predetermination step itself (manifest parse -> combination ladder).
void BM_Fig2_PredeterminedCombinations(benchmark::State& state) {
  const ex::ExperimentSetup setup = ex::fig2a_exo_dash_audio_b();
  for (auto _ : state) {
    ExoPlayerModel player;
    player.start(setup.view);
    benchmark::DoNotOptimize(player.combinations().size());
  }
}
BENCHMARK(BM_Fig2_PredeterminedCombinations);

}  // namespace
