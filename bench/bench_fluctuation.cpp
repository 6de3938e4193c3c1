// §3.3 fluctuation analysis: with H_all, many combinations sit within a
// narrow bandwidth band (318/395/460/510/652 kbps), so Shaka's memoryless
// rate rule flips among five combinations as the estimate wanders between
// 300 and 700 kbps. The coordinated player's hysteresis suppresses this.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <set>

#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "experiments/tables.h"
#include "players/shaka.h"
#include "util/rng.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;

// Pure selection-rule comparison on a synthetic estimate walk in [300, 700].
void BM_Fluctuation_ShakaSelectionRule(benchmark::State& state) {
  const ex::ExperimentSetup setup = ex::fig4a_shaka_hall_1mbps();
  ShakaPlayerModel player;
  player.start(setup.view);
  double switches = 0.0;
  double distinct = 0.0;
  for (auto _ : state) {
    Rng rng(17);
    double estimate = 500.0;
    std::size_t previous = player.select_for_estimate(estimate);
    std::set<std::size_t> seen{previous};
    switches = 0.0;
    for (int i = 0; i < 300; ++i) {
      estimate = std::clamp(estimate + rng.normal(0.0, 60.0), 300.0, 700.0);
      const std::size_t choice = player.select_for_estimate(estimate);
      if (choice != previous) switches += 1.0;
      previous = choice;
      seen.insert(choice);
    }
    distinct = static_cast<double>(seen.size());
    benchmark::DoNotOptimize(previous);
  }
  static bool printed = false;
  if (!printed) {
    printed = true;
    std::printf("=== §3.3 fluctuation: combinations within [300, 700] kbps ===\n");
    for (const ComboView& combo : player.combinations()) {
      if (combo.bandwidth_kbps >= 300.0 && combo.bandwidth_kbps <= 700.0) {
        std::printf("  %s: %.0f kbps\n", combo.label().c_str(), combo.bandwidth_kbps);
      }
    }
    std::printf("\n");
  }
  state.counters["switches_per_300_decisions"] = switches;
  state.counters["distinct_combos"] = distinct;
}
BENCHMARK(BM_Fluctuation_ShakaSelectionRule);

// Full-session comparison on a random-walk link in the same band. The paper
// notes the fluctuation happens "even if the bandwidth estimation is
// accurate" — so the Shaka variant here disables the 16 KB filter (which
// would otherwise pin the estimate at the default on this slow link) to give
// its memoryless rate rule an accurate estimate to flap on.
void run_session_fluctuation(benchmark::State& state, bool coordinated) {
  const BandwidthTrace trace =
      BandwidthTrace::random_walk(300.0, 700.0, 2.0, 300.0, 80.0, 23);
  double switches = 0.0;
  double rebuffer = 0.0;
  for (auto _ : state) {
    SessionLog log;
    ex::ExperimentSetup setup =
        coordinated ? ex::bestpractice_dash(trace, "fluct") : ex::fig4a_shaka_hall_1mbps();
    if (!coordinated) setup.trace = trace;
    if (coordinated) {
      CoordinatedPlayer player;
      log = ex::run(setup, player);
    } else {
      ShakaConfig config;
      config.estimator.min_bytes = 0;  // accurate estimation
      ShakaPlayerModel player(config);
      log = ex::run(setup, player);
    }
    const QoeReport qoe = compute_qoe(log);
    switches = qoe.combo_switches;
    rebuffer = qoe.total_stall_s;
    benchmark::DoNotOptimize(log.end_time_s);
  }
  state.counters["combo_switches"] = switches;
  state.counters["rebuffer_s"] = rebuffer;
}

void BM_Fluctuation_ShakaSession(benchmark::State& state) {
  run_session_fluctuation(state, /*coordinated=*/false);
}
BENCHMARK(BM_Fluctuation_ShakaSession)->Unit(benchmark::kMillisecond);

void BM_Fluctuation_CoordinatedSession(benchmark::State& state) {
  run_session_fluctuation(state, /*coordinated=*/true);
}
BENCHMARK(BM_Fluctuation_CoordinatedSession)->Unit(benchmark::kMillisecond);

}  // namespace
