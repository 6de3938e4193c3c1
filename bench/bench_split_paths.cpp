// §4.1 different-servers evaluation: audio and video on separate network
// paths. Compares the per-path-aware coordinated player against the
// aggregate-only configuration and the MPC variant across asymmetric
// topologies.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "experiments/tables.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;

struct Topology {
  const char* name;
  double video_kbps;
  double audio_kbps;
};

constexpr Topology kTopologies[] = {
    {"wide-video/narrow-audio", 1500.0, 180.0},
    {"narrow-video/wide-audio", 300.0, 800.0},
    {"symmetric-2m", 2000.0, 2000.0},
    {"both-narrow", 400.0, 200.0},
};

void print_table_once() {
  static bool printed = false;
  if (printed) return;
  printed = true;
  std::printf("=== §4.1 split-path evaluation ===\n");
  std::printf("%-24s | %-12s | vid kbps | aud kbps | stalls | rebuf s\n", "topology",
              "player");
  std::printf("-------------------------+--------------+----------+----------+--------+--------\n");
  for (const Topology& topo : kTopologies) {
    for (int mode = 0; mode < 3; ++mode) {
      auto setup = ex::split_path_dash(BandwidthTrace::constant(topo.video_kbps),
                                       BandwidthTrace::constant(topo.audio_kbps),
                                       topo.name);
      CoordinatedConfig config;
      const char* label = "aggregate";
      if (mode == 1) {
        config.per_path_estimation = true;
        label = "per-path";
      } else if (mode == 2) {
        config.per_path_estimation = true;
        config.algorithm = AbrAlgorithm::kMpc;
        label = "per-path-mpc";
      }
      CoordinatedPlayer player(config);
      const SessionLog log = ex::run(setup, player);
      const QoeReport qoe = compute_qoe(log);
      std::printf("%-24s | %-12s | %8.0f | %8.0f | %6d | %6.1f\n", topo.name, label,
                  qoe.avg_video_kbps, qoe.avg_audio_kbps, qoe.stall_count,
                  qoe.total_stall_s);
    }
  }
  std::printf("\n");
}

void BM_SplitPaths(benchmark::State& state) {
  print_table_once();
  const Topology& topo = kTopologies[static_cast<std::size_t>(state.range(0))];
  const bool per_path = state.range(1) != 0;
  auto setup = ex::split_path_dash(BandwidthTrace::constant(topo.video_kbps),
                                   BandwidthTrace::constant(topo.audio_kbps), topo.name);
  double avg_video = 0.0;
  double avg_audio = 0.0;
  double rebuffer = 0.0;
  for (auto _ : state) {
    CoordinatedConfig config;
    config.per_path_estimation = per_path;
    CoordinatedPlayer player(config);
    const SessionLog log = ex::run(setup, player);
    const QoeReport qoe = compute_qoe(log);
    avg_video = qoe.avg_video_kbps;
    avg_audio = qoe.avg_audio_kbps;
    rebuffer = qoe.total_stall_s;
    benchmark::DoNotOptimize(log.end_time_s);
  }
  state.counters["avg_video_kbps"] = avg_video;
  state.counters["avg_audio_kbps"] = avg_audio;
  state.counters["rebuffer_s"] = rebuffer;
  state.SetLabel(std::string(topo.name) + (per_path ? " per-path" : " aggregate"));
}
BENCHMARK(BM_SplitPaths)
    ->Args({0, 0})->Args({0, 1})
    ->Args({1, 0})->Args({1, 1})
    ->Args({2, 1})->Args({3, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
