// Figure 3 reproduction: ExoPlayer over HLS H_sub.
//   Experiment 1 (Fig 3a/3b): A3 listed first, time-varying 600 kbps avg.
//     The model pins audio to A3, stalls repeatedly, and selects
//     combinations (V1+A3, V2+A3) that are not in the manifest.
//   Experiment 2 (§3.2): A1 listed first, fixed 5 Mbps. Audio stays A1
//     despite ample bandwidth.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <set>

#include "core/compliance.h"
#include "experiments/scenarios.h"
#include "experiments/tables.h"
#include "players/exoplayer.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;

void print_once(int slot, const ex::ExperimentSetup& setup, const SessionLog& log) {
  static bool printed[2] = {false, false};
  if (printed[slot]) return;
  printed[slot] = true;
  const QoeReport qoe = compute_qoe(log, &setup.allowed);
  std::printf("=== %s ===\n%s  timeline: %s\n", setup.description.c_str(),
              summarize(log, qoe).c_str(), ex::render_selection_timeline(log).c_str());
  const ComplianceReport compliance = check_compliance(log, setup.allowed);
  std::printf("  manifest compliance: %d/%d chunks off-manifest (labels:",
              compliance.violating_chunks, compliance.total_chunks);
  for (const std::string& label : compliance.violating_labels) {
    std::printf(" %s", label.c_str());
  }
  std::printf(")\n\n");
}

void BM_Fig3_A3First_Varying600(benchmark::State& state) {
  const ex::ExperimentSetup setup = ex::fig3_exo_hls_a3_first();
  double stalls = 0.0;
  double rebuffer = 0.0;
  double off_manifest = 0.0;
  double pinned_a3 = 0.0;
  for (auto _ : state) {
    ExoPlayerModel player;
    const SessionLog log = ex::run(setup, player);
    print_once(0, setup, log);
    stalls = static_cast<double>(log.stall_count());
    rebuffer = log.total_stall_s();
    off_manifest =
        static_cast<double>(check_compliance(log, setup.allowed).violating_chunks);
    std::set<std::string> audio(log.audio_selection.begin(), log.audio_selection.end());
    pinned_a3 = (audio.size() == 1 && audio.count("A3")) ? 1.0 : 0.0;
    benchmark::DoNotOptimize(log.end_time_s);
  }
  state.counters["stalls"] = stalls;
  state.counters["rebuffer_s"] = rebuffer;
  state.counters["off_manifest_chunks"] = off_manifest;
  state.counters["audio_pinned_A3"] = pinned_a3;
}
BENCHMARK(BM_Fig3_A3First_Varying600)->Unit(benchmark::kMillisecond);

void BM_Fig3x_A1First_5Mbps(benchmark::State& state) {
  const ex::ExperimentSetup setup = ex::fig3x_exo_hls_a1_first_5mbps();
  double pinned_a1 = 0.0;
  double avg_video = 0.0;
  for (auto _ : state) {
    ExoPlayerModel player;
    const SessionLog log = ex::run(setup, player);
    print_once(1, setup, log);
    std::set<std::string> audio(log.audio_selection.begin(), log.audio_selection.end());
    pinned_a1 = (audio.size() == 1 && audio.count("A1")) ? 1.0 : 0.0;
    avg_video = compute_qoe(log).avg_video_kbps;
    benchmark::DoNotOptimize(log.end_time_s);
  }
  state.counters["audio_pinned_A1"] = pinned_a1;
  state.counters["avg_video_kbps"] = avg_video;
}
BENCHMARK(BM_Fig3x_A1First_5Mbps)->Unit(benchmark::kMillisecond);

}  // namespace
