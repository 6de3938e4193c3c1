// §4 evaluation: every player model against every standard trace, reporting
// the QoE dimensions the paper's findings are phrased in — average quality,
// stalls, switches, and manifest compliance. The coordinated player should
// be the only one with zero stalls, zero violations and low switch counts
// across the board.
//
// The full grid runs through experiments::SweepRunner (the matrix and the
// player list live in experiments/sweep.*, shared with
// examples/player_comparison); the per-cell benchmarks below time single
// sessions.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "experiments/sweep.h"
#include "experiments/tables.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;

void print_comparison_once() {
  static bool printed = false;
  if (printed) return;
  printed = true;
  // Default thread count: the table is identical at any thread count (the
  // sweep determinism contract); parallelism only changes wall time.
  const ex::SweepResult result = ex::SweepRunner().run(ex::comparison_matrix());
  std::printf("=== §4 best-practice comparison (all players x all traces) ===\n%s\n",
              ex::render_comparison_table(ex::comparison_rows(result)).c_str());
}

void BM_BestPractices_Session(benchmark::State& state) {
  print_comparison_once();
  const auto player_index = static_cast<std::size_t>(state.range(0));
  const auto traces = ex::comparison_traces();
  const auto& named = traces[static_cast<std::size_t>(state.range(1))];
  const ex::ComparisonPlayer& spec = ex::comparison_players()[player_index];
  const ex::ExperimentSetup setup =
      ex::comparison_setup(player_index, named.trace, named.name);
  double qoe_score = 0.0;
  double rebuffer = 0.0;
  double switches = 0.0;
  double off_manifest = 0.0;
  for (auto _ : state) {
    auto player = spec.factory();
    const SessionLog log = ex::run(setup, *player);
    const QoeReport report =
        compute_qoe(log, setup.allowed.empty() ? nullptr : &setup.allowed);
    qoe_score = report.qoe_score;
    rebuffer = report.total_stall_s;
    switches = report.combo_switches;
    off_manifest = report.off_manifest_chunks;
    benchmark::DoNotOptimize(log.end_time_s);
  }
  state.counters["qoe"] = qoe_score;
  state.counters["rebuffer_s"] = rebuffer;
  state.counters["combo_switches"] = switches;
  state.counters["off_manifest_chunks"] = off_manifest;
  state.SetLabel(spec.label + " on " + named.name);
}
BENCHMARK(BM_BestPractices_Session)
    // {player index, trace index}: the headline subset — the full grid is
    // printed as the comparison table above. Players follow
    // ex::comparison_players() order: 0 exo-legacy, 1 exoplayer, 2 shaka,
    // 3 dashjs, 4 muxed, 5 coordinated, 6 coordinated-mpc, 7 coordinated-bba.
    ->Args({1, 4})->Args({2, 4})->Args({3, 4})->Args({5, 4})->Args({6, 4})  // varying-600k
    ->Args({1, 5})->Args({2, 5})->Args({3, 5})->Args({5, 5})->Args({6, 5})  // bursty
    ->Args({0, 0})->Args({1, 0})->Args({3, 0})->Args({4, 0})->Args({5, 0})  // fixed-700k
    ->Unit(benchmark::kMillisecond);

}  // namespace
