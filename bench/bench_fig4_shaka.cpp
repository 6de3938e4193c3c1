// Figure 4 reproduction: Shaka Player over HLS H_all (and DASH).
//   (a) fixed 1 Mbps: every 0.125 s interval moves < 16 KB, so every sample
//       is filtered and the estimate stays pinned at the 500 kbps default ->
//       V2+A2 despite 1 Mbps of capacity.
//   (b) varying 600 kbps average: only high-phase (1.2 Mbps) solo samples
//       pass the filter -> the estimate under- then over-shoots -> V3+A3 and
//       heavy rebuffering.
//   (c) DASH: all combinations recreated from the MPD; same pinned-estimate
//       root cause.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "experiments/scenarios.h"
#include "experiments/tables.h"
#include "players/shaka.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;

void print_once(int slot, const ex::ExperimentSetup& setup, const SessionLog& log) {
  static bool printed[3] = {false, false, false};
  if (printed[slot]) return;
  printed[slot] = true;
  const QoeReport qoe = compute_qoe(log);
  std::printf("=== %s ===\n%s  timeline: %s\n", setup.description.c_str(),
              summarize(log, qoe).c_str(), ex::render_selection_timeline(log).c_str());
  std::printf("  estimate: t=20s %.0f kbps, t=60s %.0f kbps, min %.0f, max %.0f\n\n",
              log.bandwidth_estimate_kbps.value_at(20.0),
              log.bandwidth_estimate_kbps.value_at(60.0),
              log.bandwidth_estimate_kbps.min_value(),
              log.bandwidth_estimate_kbps.max_value());
}

void run_fig4(benchmark::State& state, ex::ExperimentSetup (*make_setup)(), int slot) {
  const ex::ExperimentSetup setup = make_setup();
  double estimate_min = 0.0;
  double estimate_max = 0.0;
  double rebuffer = 0.0;
  double stalls = 0.0;
  for (auto _ : state) {
    ShakaPlayerModel player;
    const SessionLog log = ex::run(setup, player);
    print_once(slot, setup, log);
    estimate_min = log.bandwidth_estimate_kbps.min_value();
    estimate_max = log.bandwidth_estimate_kbps.max_value();
    rebuffer = log.total_stall_s();
    stalls = static_cast<double>(log.stall_count());
    benchmark::DoNotOptimize(log.end_time_s);
  }
  state.counters["estimate_min_kbps"] = estimate_min;
  state.counters["estimate_max_kbps"] = estimate_max;
  state.counters["rebuffer_s"] = rebuffer;
  state.counters["stalls"] = stalls;
}

void BM_Fig4a_Fixed1Mbps(benchmark::State& state) {
  run_fig4(state, &ex::fig4a_shaka_hall_1mbps, 0);
}
BENCHMARK(BM_Fig4a_Fixed1Mbps)->Unit(benchmark::kMillisecond);

void BM_Fig4b_Varying600(benchmark::State& state) {
  run_fig4(state, &ex::fig4b_shaka_hall_varying, 1);
}
BENCHMARK(BM_Fig4b_Varying600)->Unit(benchmark::kMillisecond);

void BM_Fig4c_Dash1Mbps(benchmark::State& state) {
  run_fig4(state, &ex::fig4c_shaka_dash_1mbps, 2);
}
BENCHMARK(BM_Fig4c_Dash1Mbps)->Unit(benchmark::kMillisecond);

// Estimator microcosm: how the 16 KB filter reacts to link rate.
void BM_Fig4_FilterAcceptanceByRate(benchmark::State& state) {
  const double kbps = static_cast<double>(state.range(0));
  double accepted_fraction = 0.0;
  for (auto _ : state) {
    ShakaBandwidthEstimator estimator;
    const auto bytes_per_interval =
        static_cast<std::int64_t>(kbps * 1000.0 / 8.0 * 0.125);
    for (int i = 0; i < 800; ++i) {
      ProgressSample sample;
      sample.t0 = i * 0.125;
      sample.t1 = sample.t0 + 0.125;
      sample.bytes = bytes_per_interval;
      estimator.on_progress(sample);
    }
    accepted_fraction =
        static_cast<double>(estimator.accepted_samples()) /
        static_cast<double>(estimator.accepted_samples() + estimator.rejected_samples());
    benchmark::DoNotOptimize(estimator.estimate_kbps());
  }
  state.counters["link_kbps"] = kbps;
  state.counters["accepted_fraction"] = accepted_fraction;
}
BENCHMARK(BM_Fig4_FilterAcceptanceByRate)->Arg(500)->Arg(1000)->Arg(1048)->Arg(1100)->Arg(2000);

}  // namespace
