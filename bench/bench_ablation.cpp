// Ablations of the §4 best-practice design, one knob at a time:
//   1. curated combination list  -> all 18 combinations (free pairing)
//   2. switch hysteresis         -> memoryless rate selection
//   3. balanced chunk prefetch   -> greedy video-first scheduling
//   4. aggregate A/V estimation  -> (covered by bench_fig4's Shaka runs)
// Each ablation is the full coordinated player with exactly one
// recommendation removed, run on the traces where that recommendation bites.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "experiments/tables.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;

CoordinatedConfig baseline_config() {
  CoordinatedConfig config;
  config.fallback_policy.device.screen = DeviceProfile::Screen::kTv;
  config.fallback_policy.device.sound = DeviceProfile::Sound::kSurround;
  return config;
}

CoordinatedConfig no_hysteresis_config() {
  CoordinatedConfig config = baseline_config();
  config.abr.min_hold_s = 0.0;
  config.abr.up_switch_margin = 1.0;
  config.abr.min_buffer_for_up_s = 0.0;
  config.abr.hold_buffer_s = 0.0;
  return config;
}

CoordinatedConfig unbalanced_config() {
  CoordinatedConfig config = baseline_config();
  config.prefetch_mode = PrefetchMode::kIndependent;
  return config;
}

struct AblationResult {
  QoeReport qoe;
  double max_imbalance_s = 0.0;
};

AblationResult run_one(const CoordinatedConfig& config, const BandwidthTrace& trace,
                       bool all_combinations_manifest) {
  // "All combinations" ablation: hand the player an H_all manifest so its
  // allowed list is the full 18-combination grid.
  ex::ExperimentSetup setup = all_combinations_manifest
                                  ? ex::fig4a_shaka_hall_1mbps()
                                  : ex::bestpractice_dash(trace, "ablation");
  if (all_combinations_manifest) setup.trace = trace;
  CoordinatedPlayer player(config);
  const SessionLog log = ex::run(setup, player);
  AblationResult result;
  result.qoe = compute_qoe(log);
  for (const auto& point : log.video_buffer_s.points()) {
    result.max_imbalance_s =
        std::max(result.max_imbalance_s,
                 std::abs(point.value - log.audio_buffer_s.value_at(point.t)));
  }
  return result;
}

void print_ablation_table_once() {
  static bool printed = false;
  if (printed) return;
  printed = true;
  struct Row {
    const char* name;
    CoordinatedConfig config;
    bool all_combos;
  };
  const Row rows[] = {
      {"baseline (all practices)", baseline_config(), false},
      {"- curated list (H_all)", baseline_config(), true},
      {"- hysteresis", no_hysteresis_config(), false},
      {"- balanced prefetch", unbalanced_config(), false},
  };
  std::printf("=== §4 ablations (300/900 kbps square wave, 8 s phases) ===\n");
  std::printf("%-26s | vid kbps | aud kbps | stalls | rebuf s | switches | max imbal s\n",
              "variant");
  std::printf("---------------------------+----------+----------+--------+---------+----------+------------\n");
  const BandwidthTrace trace = ex::varying_600_trace();
  for (const Row& row : rows) {
    const AblationResult result = run_one(row.config, trace, row.all_combos);
    std::printf("%-26s | %8.0f | %8.0f | %6d | %7.1f | %8d | %10.1f\n", row.name,
                result.qoe.avg_video_kbps, result.qoe.avg_audio_kbps,
                result.qoe.stall_count, result.qoe.total_stall_s,
                result.qoe.combo_switches, result.max_imbalance_s);
  }
  std::printf("\n");
}

void run_ablation_bench(benchmark::State& state, const CoordinatedConfig& config,
                        bool all_combos) {
  print_ablation_table_once();
  const BandwidthTrace trace = ex::varying_600_trace();
  for (auto _ : state) {
    const AblationResult timed = run_one(config, trace, all_combos);
    benchmark::DoNotOptimize(&timed);
  }
  // Deterministic simulation: one untimed run yields the reported metrics.
  const AblationResult result = run_one(config, trace, all_combos);
  state.counters["qoe"] = result.qoe.qoe_score;
  state.counters["combo_switches"] = result.qoe.combo_switches;
  state.counters["rebuffer_s"] = result.qoe.total_stall_s;
  state.counters["max_imbalance_s"] = result.max_imbalance_s;
}

void BM_Ablation_Baseline(benchmark::State& state) {
  run_ablation_bench(state, baseline_config(), false);
}
BENCHMARK(BM_Ablation_Baseline)->Unit(benchmark::kMillisecond);

void BM_Ablation_NoCuratedList(benchmark::State& state) {
  run_ablation_bench(state, baseline_config(), true);
}
BENCHMARK(BM_Ablation_NoCuratedList)->Unit(benchmark::kMillisecond);

void BM_Ablation_NoHysteresis(benchmark::State& state) {
  run_ablation_bench(state, no_hysteresis_config(), false);
}
BENCHMARK(BM_Ablation_NoHysteresis)->Unit(benchmark::kMillisecond);

void BM_Ablation_NoBalancedPrefetch(benchmark::State& state) {
  run_ablation_bench(state, unbalanced_config(), false);
}
BENCHMARK(BM_Ablation_NoBalancedPrefetch)->Unit(benchmark::kMillisecond);

}  // namespace
