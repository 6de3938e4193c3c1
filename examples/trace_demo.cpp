// trace_demo: capture a contention fleet with the observability layer on.
// Runs ~10 mixed-player clients on one shared bottleneck with the Tracer
// and the engine self-profiler enabled, then writes the capture twice:
//   trace_demo.json   — Chrome trace-event JSON (open in chrome://tracing
//                       or https://ui.perfetto.dev; one "process" per
//                       session and per link, one "thread" per lane)
//   trace_demo.ndjson — one JSON object per line, greppable
// and prints the engine phase profile plus the run's own fleet summary.
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "fleet/metrics.h"
#include "fleet/scheduler.h"
#include "obs/trace.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"

using namespace demuxabr;
namespace ex = demuxabr::experiments;

int main() {
  // A small fleet on a 4 Mbps pipe: enough contention that download spans
  // overlap, ABR decisions react to fair-share swings, and some clients
  // stall — all of which shows up on the trace timeline.
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::square_wave(2500.0, 5000.0, 25.0, 25.0, true),
                     "trace-demo");

  fleet::FleetConfig config;
  config.client_count = 10;
  config.seed = 21;
  config.arrivals = fleet::ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.25;
  config.players.push_back(
      {"exoplayer", [] { return std::make_unique<ExoPlayerModel>(); }, 0.6});
  config.players.push_back(
      {"dashjs", [] { return std::make_unique<DashJsPlayerModel>(); }, 0.4});
  config.churn.leave_probability = 0.2;
  config.churn.min_watch_s = 30.0;
  config.churn.max_watch_s = 120.0;
  config.session.max_sim_time_s = 900.0;
  config.profile = true;  // engine phase wall-clock (purely observational)

  fleet::FleetResult result;
  obs::Tracer tracer(obs::kCatAll);
  {
    // Scoped: trace macros only pay for rendering while a tracer is
    // installed.
    obs::install_tracer(&tracer);
    result = fleet::run_fleet(setup.content, setup.view, setup.trace, config);
    obs::install_tracer(nullptr);
  }

  std::printf("=== traced fleet run: %d clients, %zu engine steps ===\n",
              config.client_count, result.steps);
  std::printf("captured %zu trace events\n\n", tracer.event_count());

  {
    std::ofstream chrome_out("trace_demo.json");
    obs::ChromeTraceSink sink(chrome_out);
    tracer.drain_to(sink);
  }
  {
    std::ofstream ndjson_out("trace_demo.ndjson");
    obs::NdjsonSink sink(ndjson_out);
    tracer.drain_to(sink);
  }
  std::printf("wrote trace_demo.json   (load in chrome://tracing or "
              "ui.perfetto.dev)\n");
  std::printf("wrote trace_demo.ndjson (grep-friendly, one event per line)\n");

  std::printf("\n=== engine self-profile (event-heap) ===\n%s",
              result.profile.to_table().c_str());

  std::printf("\n=== fleet summary ===\n%s",
              fleet::summarize(result, fleet::compute_fleet_metrics(result)).c_str());

  std::printf(
      "\nreading the timeline: each \"c<N> <player>\" process is one session\n"
      "(lanes: playback | video dl | audio dl | abr); \"link ...\" processes\n"
      "carry active-flow counters; \"engine ...\" carries event pops.\n");
  return 0;
}
