// Parallel sweep engine benchmark: the §4 comparison matrix (every player
// model x every standard trace) executed by experiments::SweepRunner at
// 1/2/4/8 threads. Reports sessions/sec, aggregate simulated-seconds per
// wall-second, and the serial-relative speedup, and emits the same numbers
// machine-readably to BENCH_sweep.json (cwd) so the perf trajectory is
// tracked across PRs.
//
// Speedup scales with physical cores: on a single-core host every thread
// count measures ~1.0x (the engine is still exercised — determinism under
// interleaving is covered by tests/test_sweep.cpp).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "experiments/sweep.h"
#include "util/csv.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;

constexpr const char* kReportPath = "BENCH_sweep.json";

/// One timed pass of the whole matrix per thread count, reported to
/// stdout + BENCH_sweep.json. Runs once, before google-benchmark timing.
void emit_report_once() {
  static bool emitted = false;
  if (emitted) return;
  emitted = true;
  const std::vector<ex::SweepJob> jobs = ex::comparison_matrix();
  std::vector<ex::SweepSummary> summaries;
  std::vector<std::string> notes;
  const unsigned hardware = hardware_threads();
  std::printf(
      "=== sweep: §4 comparison matrix (%zu jobs), serial vs threads "
      "(host: %u hardware thread%s) ===\n",
      jobs.size(), hardware, hardware == 1 ? "" : "s");
  for (const int threads : {1, 2, 4, 8}) {
    // Honesty over coverage: on a single-core host a "4-thread speedup" row
    // is noise that reads like data. Skip it and say so in the report.
    if (threads > 1 && hardware == 1) {
      std::printf("  threads=%d  skipped (host has 1 hardware thread)\n", threads);
      notes.push_back(format(
          "threads=%d skipped: host has 1 hardware thread, a multi-thread "
          "speedup row would be scheduler noise",
          threads));
      continue;
    }
    ex::SweepOptions options;
    options.threads = threads;
    const ex::SweepResult result = ex::SweepRunner(options).run(jobs);
    summaries.push_back(result.summary);
    const double speedup = summaries.front().wall_s > 0.0
                               ? summaries.front().wall_s / result.summary.wall_s
                               : 0.0;
    std::printf(
        "  threads=%d  wall=%.3fs  sessions/s=%.1f  sim-s/wall-s=%.0f  "
        "speedup=%.2fx\n",
        threads, result.summary.wall_s, result.summary.sessions_per_s,
        result.summary.simulated_per_wall, speedup);
  }
  const std::string json =
      ex::sweep_report_json("best-practice-comparison", summaries, notes);
  const Status written = write_file(kReportPath, json);
  if (written.ok()) {
    std::printf("  report written to %s\n\n", kReportPath);
  } else {
    std::fprintf(stderr, "  could not write %s: %s\n\n", kReportPath,
                 written.error().c_str());
  }
}

void BM_Sweep_ComparisonMatrix(benchmark::State& state) {
  emit_report_once();
  const int threads = static_cast<int>(state.range(0));
  const std::vector<ex::SweepJob> jobs = ex::comparison_matrix();
  ex::SweepOptions options;
  options.threads = threads;
  const ex::SweepRunner runner(options);
  double sessions_per_s = 0.0;
  double simulated_per_wall = 0.0;
  for (auto _ : state) {
    const ex::SweepResult result = runner.run(jobs);
    sessions_per_s = result.summary.sessions_per_s;
    simulated_per_wall = result.summary.simulated_per_wall;
    benchmark::DoNotOptimize(result.jobs.size());
  }
  state.counters["threads"] = threads;
  state.counters["sessions_per_s"] = sessions_per_s;
  state.counters["sim_s_per_wall_s"] = simulated_per_wall;
}
BENCHMARK(BM_Sweep_ComparisonMatrix)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Fan-out overhead floor: trivial jobs through fan_out_ordered at 4
/// workers (thread start, index claiming, join and the ordered merge).
void BM_Sweep_FanOutOverhead(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const std::vector<std::size_t> results =
        fan_out_ordered(jobs, 4, [](std::size_t i) { return i; });
    std::size_t total = 0;
    for (const std::size_t r : results) total += r;
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(jobs));
}
BENCHMARK(BM_Sweep_FanOutOverhead)->Arg(64)->Arg(1024)->UseRealTime();

}  // namespace
