// Figure 5 reproduction: dash.js over DASH at a fixed 700 kbps link.
// Independent per-type DYNAMIC adaptation produces (a) fluctuating and
// sometimes undesirable combinations (V2+A3 while V3+A2 fits the same
// budget) and (b) unbalanced audio/video buffers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>

#include "experiments/scenarios.h"
#include "experiments/tables.h"
#include "players/dashjs.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;

double max_buffer_imbalance(const SessionLog& log) {
  double max_imbalance = 0.0;
  for (const auto& point : log.video_buffer_s.points()) {
    const double audio = log.audio_buffer_s.value_at(point.t);
    max_imbalance = std::max(max_imbalance, std::abs(point.value - audio));
  }
  return max_imbalance;
}

void print_once(const ex::ExperimentSetup& setup, const SessionLog& log) {
  static bool printed = false;
  if (printed) return;
  printed = true;
  const QoeReport qoe = compute_qoe(log);
  std::printf("=== %s ===\n%s  timeline: %s\n", setup.description.c_str(),
              summarize(log, qoe).c_str(), ex::render_selection_timeline(log).c_str());
  std::printf("  max |video buffer - audio buffer| = %.1f s\n\n",
              max_buffer_imbalance(log));
}

void BM_Fig5_DashJs700(benchmark::State& state) {
  const ex::ExperimentSetup setup = ex::fig5_dashjs_700();
  double combo_switches = 0.0;
  double distinct_combos = 0.0;
  double imbalance = 0.0;
  double undesirable_v2a3 = 0.0;
  for (auto _ : state) {
    DashJsPlayerModel player;
    const SessionLog log = ex::run(setup, player);
    print_once(setup, log);
    const QoeReport qoe = compute_qoe(log);
    combo_switches = qoe.combo_switches;
    distinct_combos = static_cast<double>(log.selected_combination_labels().size());
    imbalance = max_buffer_imbalance(log);
    undesirable_v2a3 = 0.0;
    for (std::size_t i = 0; i < log.video_selection.size(); ++i) {
      if (log.video_selection[i] == "V2" && log.audio_selection[i] == "A3") {
        undesirable_v2a3 += 1.0;
      }
    }
    benchmark::DoNotOptimize(log.end_time_s);
  }
  state.counters["combo_switches"] = combo_switches;
  state.counters["distinct_combos"] = distinct_combos;
  state.counters["max_buffer_imbalance_s"] = imbalance;
  state.counters["v2_a3_chunks"] = undesirable_v2a3;
}
BENCHMARK(BM_Fig5_DashJs700)->Unit(benchmark::kMillisecond);

// Bandwidth sweep around the figure's operating point: the independent
// pipelines misbehave across a range, not just at exactly 700 kbps.
void BM_Fig5_Sweep(benchmark::State& state) {
  const double kbps = static_cast<double>(state.range(0));
  ex::ExperimentSetup setup = ex::fig5_dashjs_700();
  setup.trace = BandwidthTrace::constant(kbps);
  double switches = 0.0;
  double imbalance = 0.0;
  for (auto _ : state) {
    DashJsPlayerModel player;
    const SessionLog log = ex::run(setup, player);
    switches = compute_qoe(log).combo_switches;
    imbalance = max_buffer_imbalance(log);
    benchmark::DoNotOptimize(log.end_time_s);
  }
  state.counters["link_kbps"] = kbps;
  state.counters["combo_switches"] = switches;
  state.counters["max_buffer_imbalance_s"] = imbalance;
}
BENCHMARK(BM_Fig5_Sweep)->Arg(500)->Arg(700)->Arg(900)->Arg(1200)
    ->Unit(benchmark::kMillisecond);

}  // namespace
