// Fleet-scale benchmark: N demuxed-ABR clients contending on one shared
// bottleneck, swept over fleet sizes {1, 2, 10, 50, 100, 500, 1000} on the
// Table-2 drama content with per-capita-scaled paper traces (fixed 800
// kbps/client and the Fig-3 varying 600 kbps/client square wave), under both
// fleet engines side by side: the O(N)-per-step barrier reference and the
// O(log N)-per-event heap engine (the default). Reports wall time, engine
// steps/s, aggregate simulated-seconds per wall-second and fleet
// QoE/fairness, and emits the same numbers machine-readably to
// BENCH_fleet.json (cwd).
//
// Besides the google-benchmark harness, the binary doubles as a CLI perf
// probe for CI smoke jobs:
//
//   bench_fleet --clients 200 --engine event_heap [--trace fixed]
//               [--min-steps-per-s 40000] [--profile] [--trace-out PATH]
//               [--topology | --disjoint | --cdn] [--threads N] [--streaming]
//               [--max-rss-mib F] [--min-cdn-hit F]
//
// CLI mode runs exactly the requested fleet, prints one row per engine, and
// exits non-zero when a --min-steps-per-s floor is not met, peak RSS
// exceeds --max-rss-mib, (under --cdn) the demuxed edge hit ratio falls
// below --min-cdn-hit, or the topology clamped a double remove (the
// machine-greppable line's double_removes, FleetResult::double_removes).
// --profile turns on the engine self-profiler and prints its phase table;
// --trace-out traces the first requested engine's run (under --cdn, the
// demuxed run) into a Tracer of its own, once, and writes it as Chrome
// trace-event JSON (open in chrome://tracing or Perfetto) to PATH. Sharded
// runs trace every session on its global client-id track, and the file is
// the same for every --threads value. --disjoint swaps
// the shared-core layout for causally independent per-edge chains, which
// partition into parallel shards (fleet/shard.h) driven by --threads;
// --streaming drops per-session logs for O(shards + sketch) memory
// (fleet/metrics.h StreamingFleetStats).
// --cdn puts an LRU edge cache on every chain's access link
// (fleet/cdn_fleet.h) and runs the same seeds under demuxed and muxed
// origin storage back to back — the paper's §1 storage axis as a cache
// hit-ratio gap.
// Every row reports two memory numbers: rss_mib, the point-in-time resident
// set sampled right after the run (/proc/self/statm — per-row, comparable
// across rows), and peak_rss_mib, the getrusage high-water mark (cumulative
// within the process, so it reflects the largest run so far).
//
// Rows are noisy on shared hosts; each row runs --repeat times (default 3)
// and reports the run with the median steps/s, keeping that run's wall_s
// and metrics so the row stays internally consistent.
#include <benchmark/benchmark.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/coordinated_player.h"
#include "core/muxed_player.h"
#include "experiments/scenarios.h"
#include "fleet/cdn_fleet.h"
#include "fleet/scheduler.h"
#include "net/topology.h"
#include "obs/incidents.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "util/csv.h"
#include "util/strings.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;

constexpr const char* kReportPath = "BENCH_fleet.json";

/// The barrier reference engine costs O(N) per step; above this fleet size
/// its sweep rows are skipped (with a JSON note) rather than dominating the
/// report's wall time.
constexpr int kBarrierMaxClients = 100;

const char* engine_name(fleet::Engine engine) {
  return engine == fleet::Engine::kBarrier ? "barrier" : "event_heap";
}

/// How many times each report/CLI row runs; the row with the median steps/s
/// is the one reported. Overridden by --repeat in CLI mode.
int g_repeat = 3;

/// Process peak resident set in MiB (getrusage high-water mark; 0.0 where
/// unavailable). Cumulative per process: a row's value reflects the largest
/// allocation footprint of any run up to and including it. Pair with
/// current_rss_mib() for a per-row point-in-time sample.
double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
#endif
#else
  return 0.0;
#endif
}

/// Current resident set in MiB sampled from /proc/self/statm (Linux-only;
/// 0.0 elsewhere). Unlike the getrusage peak this is a point-in-time value,
/// so per-row samples are comparable across rows regardless of what ran
/// earlier in the process.
double current_rss_mib() {
#if defined(__linux__)
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  long long size_pages = 0;
  long long resident_pages = 0;
  const int got = std::fscanf(statm, "%lld %lld", &size_pages, &resident_pages);
  std::fclose(statm);
  if (got != 2) return 0.0;
  const long page_bytes = sysconf(_SC_PAGESIZE);
  if (page_bytes <= 0) return 0.0;
  return static_cast<double>(resident_pages) * static_cast<double>(page_bytes) /
         (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

/// 60% ExoPlayer, 25% dash.js, 15% coordinated — a plausible demuxed-ABR
/// population on a plain DASH manifest.
std::vector<fleet::PlayerShare> population_mix() {
  std::vector<fleet::PlayerShare> mix;
  mix.push_back({"exoplayer",
                 [] { return std::make_unique<ExoPlayerModel>(); },
                 0.60});
  mix.push_back({"dashjs",
                 [] { return std::make_unique<DashJsPlayerModel>(); },
                 0.25});
  mix.push_back({"coordinated",
                 [] { return std::make_unique<CoordinatedPlayer>(); },
                 0.15});
  return mix;
}

fleet::FleetConfig fleet_config(int clients, fleet::Engine engine) {
  fleet::FleetConfig config;
  config.client_count = clients;
  config.seed = 42;
  config.engine = engine;
  config.arrivals = fleet::ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 1.0;
  config.players = population_mix();
  config.churn.leave_probability = 0.1;
  config.churn.min_watch_s = 30.0;
  config.churn.max_watch_s = 120.0;
  config.session.max_sim_time_s = 1800.0;  // per-client budget under starvation
  return config;
}

struct TraceCase {
  std::string name;
  BandwidthTrace trace;
};

/// Paper traces scaled per capita so the fair share per client stays at the
/// single-session operating point while contention dynamics still play out.
std::vector<TraceCase> trace_cases(int clients) {
  const double n = static_cast<double>(clients);
  return {
      {"fixed-800k-per-client", BandwidthTrace::constant(800.0 * n)},
      {"varying-600k-per-client",
       BandwidthTrace::square_wave(300.0 * n, 900.0 * n, 8.0, 8.0, true)},
  };
}

BandwidthTrace trace_by_label(const std::string& label, int clients) {
  for (TraceCase& tc : trace_cases(clients)) {
    if (tc.name.rfind(label, 0) == 0) return std::move(tc.trace);
  }
  std::fprintf(stderr, "unknown trace '%s' (want fixed|varying)\n", label.c_str());
  std::exit(2);
}

/// Sharded client → edge → core layout for the topology rows. All three
/// layers are per-capita-scaled like trace_cases(): access ample (2500
/// kbps/client), edge at the single-session operating point (900
/// kbps/client per shard) and the core undersized (700 kbps/client) so the
/// binding constraint moves between edge and core as shards fill.
TopologySpec sharded_spec(int edges, int clients_per_edge) {
  const double per_edge = static_cast<double>(clients_per_edge);
  const double total = per_edge * edges;
  TopologySpec spec = TopologySpec::sharded(
      edges, BandwidthTrace::constant(2500.0 * per_edge),
      BandwidthTrace::constant(900.0 * per_edge),
      BandwidthTrace::constant(700.0 * total));
  spec.video_assignment = TopologySpec::block_assignment(
      static_cast<std::size_t>(edges), static_cast<std::size_t>(clients_per_edge));
  return spec;
}

/// Causally disjoint per-edge chains: one edge → core pair per shard, no
/// shared links, so partition_fleet() splits the fleet into `edges`
/// independent shards that run concurrently under --threads != 1 with a
/// byte-identical merged fingerprint (tests/test_fleet_shard.cpp). Same
/// per-capita scaling as sharded_spec, minus the shared core.
TopologySpec disjoint_spec(int edges, int clients_per_edge) {
  const double per_edge = static_cast<double>(clients_per_edge);
  TopologySpec spec;
  for (int e = 0; e < edges; ++e) {
    const std::size_t edge = spec.add_link(
        format("edge-%d", e), BandwidthTrace::constant(900.0 * per_edge));
    const std::size_t core = spec.add_link(
        format("core-%d", e), BandwidthTrace::constant(700.0 * per_edge));
    spec.add_path(format("chain-%d", e), {edge, core});
  }
  spec.video_assignment = TopologySpec::block_assignment(
      static_cast<std::size_t>(edges), static_cast<std::size_t>(clients_per_edge));
  return spec;
}

/// Disjoint chains with an LRU edge cache on every access link (the
/// client-side hop, so edge hits skip the per-chain core entirely). The
/// layout partitions into `edges` shards like disjoint_spec.
TopologySpec cdn_spec(int edges, int clients_per_edge, std::int64_t cache_bytes) {
  TopologySpec spec = disjoint_spec(edges, clients_per_edge);
  for (std::size_t l = 0; l < spec.links.size(); l += 2) {
    spec.links[l].cache = CacheSpec{cache_bytes, -1};
  }
  return spec;
}

struct FleetRunRecord {
  std::string trace;
  std::string engine;
  std::string topology = "single";  ///< "single", "sharded-10x10", "disjoint-10x50"
  std::string storage = "none";     ///< origin storage of cache-aware rows
  int clients = 0;
  int threads = 1;
  bool streaming = false;
  // CDN plane aggregates, summed over every cache node (zero when the run
  // has no caches).
  std::int64_t cdn_requests = 0;
  double cdn_hit_ratio = 0.0;
  double cdn_byte_hit_ratio = 0.0;
  double cdn_origin_mb = 0.0;
  std::size_t cdn_evictions = 0;
  double rss_mib = 0.0;       ///< current resident set right after the run
  double peak_rss_mib = 0.0;  ///< process high-water mark after the run
  double wall_s = 0.0;
  std::size_t steps = 0;
  std::uint64_t double_removes = 0;
  double simulated_s = 0.0;
  fleet::FleetMetrics metrics;
  double link_utilization = 0.0;
  int peak_flows = 0;
  obs::EngineProfile profile;
  /// Telemetry-enabled rows: bins emitted (0 = telemetry off) plus the
  /// timeline itself for the CLI exporters.
  std::size_t telemetry_bins = 0;
  std::optional<obs::FleetTimeline> timeline;

  [[nodiscard]] double steps_per_s() const {
    return wall_s > 0.0 ? static_cast<double>(steps) / wall_s : 0.0;
  }
  [[nodiscard]] double sim_per_wall() const {
    return wall_s > 0.0 ? simulated_s / wall_s : 0.0;
  }
};

FleetRunRecord run_configured(const ex::ExperimentSetup& setup,
                              const TraceCase& tc,
                              const fleet::FleetConfig& config) {
  const auto t0 = std::chrono::steady_clock::now();
  const fleet::FleetResult result =
      fleet::run_fleet(setup.content, setup.view, tc.trace, config);
  FleetRunRecord record;
  record.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                      .count();
  record.trace = tc.name;
  record.engine = engine_name(config.engine);
  record.clients = config.client_count;
  record.threads = config.threads;
  record.streaming = result.streaming.has_value();
  record.rss_mib = current_rss_mib();
  record.peak_rss_mib = peak_rss_mib();
  record.steps = result.steps;
  record.double_removes = result.double_removes;
  if (result.streaming.has_value()) {
    record.simulated_s = result.streaming->active_s_sum;
  } else {
    for (const fleet::ClientResult& client : result.clients) {
      record.simulated_s += client.log.end_time_s - client.arrival_s;
    }
  }
  record.metrics = compute_fleet_metrics(result);
  record.link_utilization = result.links.front().utilization();
  record.peak_flows = result.links.front().peak_flows;
  record.profile = result.profile;
  if (!result.cdns.empty()) {
    std::int64_t edge_hits = 0;
    std::int64_t edge_bytes = 0;
    std::int64_t total_bytes = 0;
    std::int64_t origin_bytes = 0;
    for (const fleet::CdnStats& cdn : result.cdns) {
      record.cdn_requests += cdn.requests;
      edge_hits += cdn.edge_hits;
      edge_bytes += cdn.edge_hit_bytes;
      total_bytes += cdn.edge_hit_bytes + cdn.regional_hit_bytes + cdn.origin_bytes;
      origin_bytes += cdn.origin_bytes;
      record.cdn_evictions += cdn.edge_evictions;
    }
    if (record.cdn_requests > 0) {
      record.cdn_hit_ratio = static_cast<double>(edge_hits) /
                             static_cast<double>(record.cdn_requests);
    }
    if (total_bytes > 0) {
      record.cdn_byte_hit_ratio =
          static_cast<double>(edge_bytes) / static_cast<double>(total_bytes);
    }
    record.cdn_origin_mb = static_cast<double>(origin_bytes) / (1024.0 * 1024.0);
    record.storage = storage_mode_name(config.cdn.storage);
  }
  if (result.timeline.has_value()) {
    record.telemetry_bins = result.timeline->bin_count();
    record.timeline = result.timeline;
  }
  return record;
}

FleetRunRecord run_case(const ex::ExperimentSetup& setup, const TraceCase& tc,
                        int clients, fleet::Engine engine,
                        bool profile = false, bool telemetry = false) {
  fleet::FleetConfig config = fleet_config(clients, engine);
  config.profile = profile;
  config.telemetry.enabled = telemetry;
  return run_configured(setup, tc, config);
}

/// Topology row: `edges` shards x `clients_per_edge` clients funnelling
/// into one core. The shared trace argument is ignored by the scheduler
/// once a topology is set; row utilization/peak report the core link
/// (link 0 of TopologySpec::sharded).
FleetRunRecord run_topology_case(const ex::ExperimentSetup& setup, int edges,
                                 int clients_per_edge, fleet::Engine engine,
                                 bool profile = false, int threads = 1,
                                 bool streaming = false, bool disjoint = false,
                                 bool telemetry = false,
                                 obs::Tracer* tracer = nullptr) {
  const int clients = edges * clients_per_edge;
  fleet::FleetConfig config = fleet_config(clients, engine);
  config.profile = profile;
  config.threads = threads;
  config.telemetry.enabled = telemetry;
  config.session.tracer = tracer;
  if (streaming) config.streaming.client_threshold = 0;
  config.topology = disjoint ? disjoint_spec(edges, clients_per_edge)
                             : sharded_spec(edges, clients_per_edge);
  const TraceCase tc{disjoint ? "disjoint-chains-700k-per-client"
                              : "sharded-core-700k-per-client",
                     BandwidthTrace::constant(1000.0)};
  FleetRunRecord record = run_configured(setup, tc, config);
  record.topology = format(disjoint ? "disjoint-%dx%d" : "sharded-%dx%d", edges,
                           clients_per_edge);
  return record;
}

std::vector<fleet::PlayerShare> muxed_population() {
  std::vector<fleet::PlayerShare> mix;
  mix.push_back({"muxed", [] { return std::make_unique<MuxedPlayer>(); }, 1.0});
  return mix;
}

/// Cache-aware row: disjoint chains with an LRU edge cache on every access
/// link, sized to a quarter of the demuxed catalog, same seeds and ladder
/// in both storage modes. Demuxed rows keep the usual demuxed-ABR
/// population; muxed rows run the MuxedPlayer against A×V combination
/// objects, so the §1 storage axis shows up as a cache hit-ratio gap.
FleetRunRecord run_cdn_case(const ex::ExperimentSetup& setup, int edges,
                            int clients_per_edge, StorageMode storage,
                            int threads = 1, obs::Tracer* tracer = nullptr) {
  const int clients = edges * clients_per_edge;
  fleet::FleetConfig config = fleet_config(clients, fleet::Engine::kEventHeap);
  config.threads = threads;
  config.session.tracer = tracer;
  config.cdn.storage = storage;
  if (storage == StorageMode::kMuxed) config.players = muxed_population();
  const auto demuxed_catalog =
      fleet::make_fleet_catalog(setup.content, StorageMode::kDemuxed);
  config.topology =
      cdn_spec(edges, clients_per_edge, demuxed_catalog->total_bytes() / 4);
  const TraceCase tc{"disjoint-chains-700k-per-client",
                     BandwidthTrace::constant(1000.0)};
  FleetRunRecord record = run_configured(setup, tc, config);
  record.topology = format("cdn-%dx%d", edges, clients_per_edge);
  return record;
}

/// The million-client row: a flash crowd of 1000 causally independent
/// shards x 1000 concurrent clients each, streaming metrics on (per-session
/// logs would be ~10^6 × O(chunks) of memory; the sketches are O(shards)).
/// ~2.4 G engine steps — minutes of wall time, so opt-in via
/// BENCH_FLEET_MILLION=1.
FleetRunRecord run_million_case(const ex::ExperimentSetup& setup) {
  const int edges = 1000;
  const int per_edge = 1000;
  fleet::FleetConfig config = fleet_config(edges * per_edge,
                                           fleet::Engine::kEventHeap);
  config.arrivals = fleet::ArrivalProcess::kSimultaneous;  // 1M concurrent
  config.threads = 0;  // hardware default
  config.streaming.client_threshold = 0;
  config.topology = disjoint_spec(edges, per_edge);
  const TraceCase tc{"disjoint-chains-700k-per-client",
                     BandwidthTrace::constant(1000.0)};
  FleetRunRecord record = run_configured(setup, tc, config);
  record.topology = format("disjoint-%dx%d", edges, per_edge);
  return record;
}

/// Run one row `repeat` times and keep the run with the median steps/s.
/// wall_s, RSS and metrics all come from that same run, so the reported row
/// is an actual run, not a blend. Shared benchmark hosts swing single
/// samples by tens of percent; the median is what report history and CI
/// floors can rely on.
template <typename RunRow>
FleetRunRecord run_median(int repeat, const RunRow& run_row) {
  std::vector<FleetRunRecord> runs;
  runs.reserve(static_cast<std::size_t>(std::max(repeat, 1)));
  for (int i = 0; i < std::max(repeat, 1); ++i) runs.push_back(run_row());
  std::sort(runs.begin(), runs.end(),
            [](const FleetRunRecord& a, const FleetRunRecord& b) {
              return a.steps_per_s() < b.steps_per_s();
            });
  return runs[runs.size() / 2];
}

void print_record(const FleetRunRecord& r) {
  std::printf(
      "  %-28s %-10s %-16s clients=%-7d threads=%d%s wall=%7.2fs "
      "steps/s=%9.0f sim-s/wall-s=%8.1f qoe=%7.1f jain=%.3f util=%.3f "
      "peak_flows=%d rss=%.0fMiB peak_rss=%.0fMiB\n",
      r.trace.c_str(), r.engine.c_str(), r.topology.c_str(), r.clients,
      r.threads, r.streaming ? " streaming" : "", r.wall_s, r.steps_per_s(),
      r.sim_per_wall(), r.metrics.mean_qoe, r.metrics.jain_fairness_video,
      r.link_utilization, r.peak_flows, r.rss_mib, r.peak_rss_mib);
  if (r.storage != "none") {
    std::printf(
        "    cdn: storage=%s requests=%lld hit=%.3f byte_hit=%.3f "
        "origin_mb=%.1f evictions=%zu\n",
        r.storage.c_str(), static_cast<long long>(r.cdn_requests),
        r.cdn_hit_ratio, r.cdn_byte_hit_ratio, r.cdn_origin_mb,
        r.cdn_evictions);
  }
}

std::string fleet_report_json(const std::vector<FleetRunRecord>& records,
                              const std::string& profile_json,
                              const std::string& telemetry_json,
                              const std::vector<std::string>& notes) {
  std::string out;
  out += "{\n  \"bench\": \"fleet\",\n  \"content\": \"drama-300s\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FleetRunRecord& r = records[i];
    out += format(
        "    {\"trace\": \"%s\", \"engine\": \"%s\", \"topology\": \"%s\", "
        "\"storage\": \"%s\", \"clients\": %d, \"threads\": %d, "
        "\"streaming\": %s, "
        "\"wall_s\": %.6f, \"steps\": %zu, \"steps_per_s\": %.0f, "
        "\"sim_s\": %.1f, \"sim_s_per_wall_s\": %.1f, \"mean_qoe\": %.1f, "
        "\"jain_video\": %.4f, \"stall_ratio_p90\": %.4f, "
        "\"video_kbps_p50\": %.0f, \"link_utilization\": %.4f, "
        "\"peak_flows\": %d, \"rss_mib\": %.1f, \"peak_rss_mib\": %.1f, "
        "\"cdn_requests\": %lld, \"cdn_hit_ratio\": %.4f, "
        "\"cdn_byte_hit_ratio\": %.4f, \"cdn_origin_mb\": %.1f, "
        "\"cdn_evictions\": %zu, \"telemetry_bins\": %zu}%s\n",
        r.trace.c_str(), r.engine.c_str(), r.topology.c_str(),
        r.storage.c_str(), r.clients, r.threads,
        r.streaming ? "true" : "false", r.wall_s, r.steps, r.steps_per_s(),
        r.simulated_s, r.sim_per_wall(), r.metrics.mean_qoe,
        r.metrics.jain_fairness_video, r.metrics.stall_ratio.p90,
        r.metrics.video_kbps.p50, r.link_utilization, r.peak_flows,
        r.rss_mib, r.peak_rss_mib, static_cast<long long>(r.cdn_requests),
        r.cdn_hit_ratio, r.cdn_byte_hit_ratio, r.cdn_origin_mb,
        r.cdn_evictions, r.telemetry_bins, i + 1 < records.size() ? "," : "");
  }
  out += "  ],\n";
  if (!profile_json.empty()) {
    out += "  \"engine_profile\": " + profile_json + ",\n";
  }
  if (!telemetry_json.empty()) {
    out += "  \"telemetry\": " + telemetry_json + ",\n";
  }
  out += "  \"notes\": [\n";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    out += "    \"" + notes[i] + "\"";
    out += i + 1 < notes.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

/// One full sweep per process, before google-benchmark timing: fleet sizes
/// {1, 2, 10, 50, 100, 500, 1000} on both traces and both engines, printed
/// and written to the report.
void emit_report_once() {
  static bool emitted = false;
  if (emitted) return;
  emitted = true;
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1000.0), "fleet-bench");
  std::vector<FleetRunRecord> records;
  std::vector<std::string> notes;
  std::printf("=== fleet: shared-bottleneck sweep, drama content, both engines ===\n");
  for (const int clients : {1, 2, 10, 50, 100, 500, 1000}) {
    for (const TraceCase& tc : trace_cases(clients)) {
      for (const fleet::Engine engine :
           {fleet::Engine::kEventHeap, fleet::Engine::kBarrier}) {
        if (engine == fleet::Engine::kBarrier && clients > kBarrierMaxClients) {
          continue;  // noted once below
        }
        const FleetRunRecord r = run_median(
            g_repeat, [&] { return run_case(setup, tc, clients, engine); });
        print_record(r);
        records.push_back(r);
      }
    }
  }
  notes.push_back(format(
      "barrier rows above %d clients skipped: the reference engine costs "
      "O(N) per step and exists for cross-validation, not scale",
      kBarrierMaxClients));
  // Sharded client → edge → core topology rows: 10 shards with a
  // per-capita-scaled core, event-heap at growing per-edge density plus one
  // barrier point for cross-engine sanity at matched scale.
  std::printf("=== fleet: sharded 10-edge topology (client -> edge -> core) ===\n");
  for (const int per_edge : {1, 10, 50}) {
    const FleetRunRecord r = run_median(g_repeat, [&] {
      return run_topology_case(setup, 10, per_edge, fleet::Engine::kEventHeap);
    });
    print_record(r);
    records.push_back(r);
  }
  {
    const FleetRunRecord r = run_median(g_repeat, [&] {
      return run_topology_case(setup, 10, 10, fleet::Engine::kBarrier);
    });
    print_record(r);
    records.push_back(r);
  }
  // Parallel disjoint-shard rows: 10 causally independent chains whose
  // engines run concurrently on fan_out_ordered's workers. Fingerprints are
  // byte-identical across thread counts (tests/test_fleet_shard.cpp), so
  // the threads column measures speed and overhead, never drift.
  std::printf("=== fleet: disjoint 10-chain topology, parallel shards ===\n");
  for (const int threads : {1, 2}) {
    const FleetRunRecord r = run_median(g_repeat, [&] {
      return run_topology_case(setup, 10, 50, fleet::Engine::kEventHeap,
                               /*profile=*/false, threads, /*streaming=*/false,
                               /*disjoint=*/true);
    });
    print_record(r);
    records.push_back(r);
  }
  // Streaming-metrics rows: per-session logs off, memory O(shards + sketch
  // buckets) instead of O(clients × log length); peak_rss_mib is the
  // memory-bound witness.
  std::printf("=== fleet: streaming-metrics mode (no per-session logs) ===\n");
  for (const int per_edge : {50, 100}) {
    const FleetRunRecord r = run_median(g_repeat, [&] {
      return run_topology_case(setup, 10, per_edge, fleet::Engine::kEventHeap,
                               false, 2, true, true);
    });
    print_record(r);
    records.push_back(r);
  }
  // Cache-aware rows: the same seeds and ladder under demuxed vs muxed
  // origin storage — the §1 storage axis as an edge hit-ratio gap (cache
  // sized to a quarter of the demuxed catalog on every chain).
  std::printf("=== fleet: cache-aware 10-chain topology, demuxed vs muxed ===\n");
  for (const StorageMode storage : {StorageMode::kDemuxed, StorageMode::kMuxed}) {
    const FleetRunRecord r = run_median(
        g_repeat, [&] { return run_cdn_case(setup, 10, 20, storage, 2); });
    print_record(r);
    records.push_back(r);
  }
  notes.push_back(
      "cdn-10x20 row pair: identical seeds/ladder, only origin storage "
      "differs; muxed A\\u00d7V combination objects inflate the working set, "
      "so the same edge capacity yields a lower hit ratio");
  notes.push_back(
      "threads>1 rows on single-core hosts measure shard-merge overhead, not "
      "speedup; steps/s scales with physical cores (shards are causally "
      "independent)");
  notes.push_back(
      "rss_mib is the point-in-time resident set sampled right after the "
      "row's run (/proc/self/statm), comparable across rows; peak_rss_mib "
      "is the process getrusage high-water mark, cumulative within the "
      "report run, so it reflects the largest fleet executed up to that "
      "point");
  notes.push_back(format(
      "each row is the median-steps/s run of %d repeats (wall_s and metrics "
      "come from that same run); the million-client and profiled rows run "
      "once",
      g_repeat));
  // The million-client row costs minutes of wall time: opt-in.
  if (const char* million = std::getenv("BENCH_FLEET_MILLION");
      million != nullptr && million[0] == '1') {
    std::printf(
        "=== fleet: 1M concurrent clients, 1000 disjoint shards, streaming "
        "===\n");
    const FleetRunRecord r = run_million_case(setup);
    print_record(r);
    records.push_back(r);
  } else {
    notes.push_back(
        "set BENCH_FLEET_MILLION=1 to append the 1M-client streaming row "
        "(1000 disjoint shards x 1000 concurrent clients; ~2.4G engine "
        "steps, minutes of wall time)");
  }
  // One dedicated self-profiled event-heap run: phase wall-clock + heap
  // counters land in the report so a steps/s regression localises to a
  // phase across report history.
  const FleetRunRecord profiled = run_case(
      setup, trace_cases(200)[0], 200, fleet::Engine::kEventHeap, true);
  const std::string profile_json = format(
      "{\"clients\": 200, \"engine\": \"event_heap\", \"trace\": \"%s\", "
      "\"data\": %s}",
      profiled.trace.c_str(), profiled.profile.to_json().c_str());
  notes.push_back(
      "engine_profile.data schema documented in EXPERIMENTS.md "
      "(Engine profile)");
  // Telemetry overhead on the same 200-client operating point: the fleet
  // with the timeline accumulator on vs off; the overhead_ratio column is
  // the per-hook cost (1.0 = free, telemetry is a handful of integer adds
  // behind one null-check per hook).
  std::printf("=== fleet: telemetry overhead, 200 clients, event_heap ===\n");
  const FleetRunRecord tele_off = run_median(g_repeat, [&] {
    return run_case(setup, trace_cases(200)[0], 200, fleet::Engine::kEventHeap);
  });
  print_record(tele_off);
  records.push_back(tele_off);
  const FleetRunRecord tele_on = run_median(g_repeat, [&] {
    return run_case(setup, trace_cases(200)[0], 200, fleet::Engine::kEventHeap,
                    /*profile=*/false, /*telemetry=*/true);
  });
  print_record(tele_on);
  records.push_back(tele_on);
  const std::string telemetry_json = format(
      "{\"clients\": 200, \"engine\": \"event_heap\", \"bins\": %zu, "
      "\"steps_per_s_disabled\": %.0f, \"steps_per_s_enabled\": %.0f, "
      "\"overhead_ratio\": %.4f}",
      tele_on.telemetry_bins, tele_off.steps_per_s(), tele_on.steps_per_s(),
      tele_off.steps_per_s() > 0.0
          ? tele_on.steps_per_s() / tele_off.steps_per_s()
          : 0.0);
  notes.push_back(
      "telemetry.overhead_ratio = steps_per_s with the 1s-bin timeline "
      "accumulator enabled / disabled, both medians on the 200-client "
      "fixed-trace event_heap row; telemetry_bins > 0 marks the enabled row");
  const Status written = write_file(
      kReportPath, fleet_report_json(records, profile_json, telemetry_json, notes));
  if (written.ok()) {
    std::printf("  report written to %s\n\n", kReportPath);
  } else {
    std::fprintf(stderr, "  could not write %s: %s\n\n", kReportPath,
                 written.error().c_str());
  }
}

void BM_Fleet_SharedBottleneck(benchmark::State& state) {
  emit_report_once();
  const int clients = static_cast<int>(state.range(0));
  const fleet::Engine engine =
      state.range(1) != 0 ? fleet::Engine::kEventHeap : fleet::Engine::kBarrier;
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1000.0), "fleet-bench");
  const TraceCase tc = trace_cases(clients)[0];
  std::size_t steps = 0;
  double simulated_s = 0.0;
  for (auto _ : state) {
    const fleet::FleetResult result = fleet::run_fleet(
        setup.content, setup.view, tc.trace, fleet_config(clients, engine));
    steps = result.steps;
    simulated_s = 0.0;
    for (const fleet::ClientResult& client : result.clients) {
      simulated_s += client.log.end_time_s - client.arrival_s;
    }
    benchmark::DoNotOptimize(result.clients.size());
  }
  state.SetLabel(engine_name(engine));
  state.counters["clients"] = clients;
  state.counters["steps"] = static_cast<double>(steps);
  state.counters["sim_s"] = simulated_s;
}
BENCHMARK(BM_Fleet_SharedBottleneck)
    ->Args({1, 1})->Args({2, 1})->Args({10, 1})->Args({10, 0})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Replication fan-out: fan_out_ordered's worker path (independent seeds).
void BM_Fleet_Replications(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1000.0), "fleet-bench");
  fleet::ReplicationOptions options;
  options.replications = 4;
  options.threads = threads;
  const fleet::FleetConfig config = fleet_config(2, fleet::Engine::kEventHeap);
  const TraceCase tc = trace_cases(2)[0];
  for (auto _ : state) {
    const auto reps = fleet::run_replications(setup.content, setup.view, tc.trace,
                                              config, options);
    benchmark::DoNotOptimize(reps.size());
  }
  state.counters["threads"] = threads;
}
BENCHMARK(BM_Fleet_Replications)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// --- CLI perf-probe mode -------------------------------------------------

struct CliOptions {
  bool cli_mode = false;
  int clients = 100;
  std::string engine = "event_heap";  ///< barrier | event_heap | both
  std::string trace = "fixed";        ///< fixed | varying
  double min_steps_per_s = 0.0;       ///< 0 = no floor check
  double max_rss_mib = 0.0;           ///< 0 = no RSS ceiling check
  int threads = 1;                    ///< shard workers (0 = hardware)
  bool streaming = false;             ///< streaming-metrics mode (no logs)
  bool profile = false;               ///< engine self-profile table
  bool topology = false;              ///< sharded 10-edge multi-link fleet
  bool disjoint = false;              ///< disjoint per-edge chains (parallel)
  bool cdn = false;                   ///< cache-aware chains, demuxed vs muxed
  double min_cdn_hit = 0.0;           ///< demuxed hit-ratio floor (0 = off)
  int repeat = 3;                     ///< runs per row; median steps/s kept
  std::string trace_out;              ///< Chrome trace JSON path ("" = off)
  std::string telemetry_out;          ///< timeline NDJSON path ("" = off)
  std::string report_out;             ///< telemetry HTML report path ("" = off)
};

[[noreturn]] void cli_usage_and_exit() {
  std::fprintf(stderr,
               "usage: bench_fleet [--clients N] [--engine barrier|event_heap|both]\n"
               "                   [--trace fixed|varying] [--min-steps-per-s F]\n"
               "                   [--max-rss-mib F] [--threads N] [--streaming]\n"
               "                   [--topology | --disjoint | --cdn] [--profile]\n"
               "                   [--min-cdn-hit F] [--repeat N] [--trace-out trace.json]\n"
               "                   [--telemetry-out timeline.ndjson] [--report-out report.html]\n"
               "       bench_fleet [google-benchmark flags]\n");
  std::exit(2);
}

/// Accepts `--flag value` and `--flag=value`. Any recognised flag switches
/// the binary into CLI mode (no google-benchmark harness).
CliOptions parse_cli(int argc, char** argv) {
  CliOptions cli;
  const auto value_of = [&](const char* flag, int& i) -> const char* {
    const std::size_t flag_len = std::strlen(flag);
    if (std::strncmp(argv[i], flag, flag_len) != 0) return nullptr;
    if (argv[i][flag_len] == '=') return argv[i] + flag_len + 1;
    if (argv[i][flag_len] == '\0') {
      if (i + 1 >= argc) cli_usage_and_exit();
      return argv[++i];
    }
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value_of("--clients", i)) {
      cli.clients = std::atoi(v);
      cli.cli_mode = true;
    } else if (const char* v2 = value_of("--engine", i)) {
      cli.engine = v2;
      cli.cli_mode = true;
    } else if (const char* v3 = value_of("--trace", i)) {
      cli.trace = v3;
      cli.cli_mode = true;
    } else if (const char* v4 = value_of("--min-steps-per-s", i)) {
      cli.min_steps_per_s = std::atof(v4);
      cli.cli_mode = true;
    } else if (const char* v5 = value_of("--trace-out", i)) {
      cli.trace_out = v5;
      cli.cli_mode = true;
    } else if (const char* v6 = value_of("--max-rss-mib", i)) {
      cli.max_rss_mib = std::atof(v6);
      cli.cli_mode = true;
    } else if (const char* v7 = value_of("--threads", i)) {
      cli.threads = std::atoi(v7);
      cli.cli_mode = true;
    } else if (std::strcmp(argv[i], "--streaming") == 0) {
      cli.streaming = true;
      cli.cli_mode = true;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      cli.profile = true;
      cli.cli_mode = true;
    } else if (std::strcmp(argv[i], "--topology") == 0) {
      cli.topology = true;
      cli.cli_mode = true;
    } else if (std::strcmp(argv[i], "--disjoint") == 0) {
      cli.disjoint = true;
      cli.cli_mode = true;
    } else if (std::strcmp(argv[i], "--cdn") == 0) {
      cli.cdn = true;
      cli.cli_mode = true;
    } else if (const char* v8 = value_of("--min-cdn-hit", i)) {
      cli.min_cdn_hit = std::atof(v8);
      cli.cli_mode = true;
    } else if (const char* v9 = value_of("--repeat", i)) {
      cli.repeat = std::atoi(v9);
      if (cli.repeat < 1) cli_usage_and_exit();
      cli.cli_mode = true;
    } else if (const char* v10 = value_of("--telemetry-out", i)) {
      cli.telemetry_out = v10;
      cli.cli_mode = true;
    } else if (const char* v11 = value_of("--report-out", i)) {
      cli.report_out = v11;
      cli.cli_mode = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      cli_usage_and_exit();
    }
    // Anything else is left for google-benchmark (non-CLI mode).
  }
  return cli;
}

/// A clamped double remove means the run's flow accounting was corrupt:
/// report it and fail the CLI, whatever the perf floors say.
bool guards_clean(const FleetRunRecord& r) {
  if (r.double_removes == 0) return true;
  std::fprintf(stderr, "FAIL: %s %s clamped %llu double removes\n", r.engine.c_str(),
               r.topology.c_str(), static_cast<unsigned long long>(r.double_removes));
  return false;
}

/// Write `tracer` to `path` as Chrome trace-event JSON.
bool write_trace(const obs::Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "FAIL: cannot open %s for writing\n", path.c_str());
    return false;
  }
  obs::ChromeTraceSink sink(out);
  tracer.drain_to(sink);
  std::printf("trace: %zu events written to %s (open in chrome://tracing)\n",
              tracer.event_count(), path.c_str());
  return true;
}

int run_cli(const CliOptions& cli) {
  if (cli.clients <= 0) cli_usage_and_exit();
  std::vector<fleet::Engine> engines;
  if (cli.engine == "both") {
    engines = {fleet::Engine::kEventHeap, fleet::Engine::kBarrier};
  } else if (cli.engine == "barrier") {
    engines = {fleet::Engine::kBarrier};
  } else if (cli.engine == "event_heap") {
    engines = {fleet::Engine::kEventHeap};
  } else {
    cli_usage_and_exit();
  }
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1000.0), "fleet-bench");
  TraceCase tc{cli.trace, trace_by_label(cli.trace, cli.clients)};

  // --trace-out captures one run, not a comparison: the first requested
  // engine's run (under --cdn, the first storage mode's) traces into
  // `tracer`. That row runs once, since a repeat would append a second copy
  // of the run to the same trace.
  std::optional<obs::Tracer> tracer;
  if (!cli.trace_out.empty()) tracer.emplace(obs::kCatAll);

  // --topology / --disjoint / --cdn distribute the requested fleet over 10
  // equal shards (block assignment), rounding --clients down to a multiple
  // of 10.
  const bool multi_link = cli.topology || cli.disjoint || cli.cdn;
  const int edges = 10;
  const int per_edge = multi_link ? std::max(1, cli.clients / edges) : 0;
  if (multi_link && cli.clients != edges * per_edge) {
    std::fprintf(stderr, "note: --topology rounds %d clients to %d (10 shards)\n",
                 cli.clients, edges * per_edge);
  }

  bool floor_met = true;

  // --cdn mode: the demuxed-vs-muxed storage pair on cache-aware chains
  // (always event-heap; the cross-engine identity is covered by tests).
  if (cli.cdn) {
    std::printf("=== fleet CLI: %d clients, cache-aware 10-chain topology, "
                "demuxed vs muxed%s ===\n",
                edges * per_edge,
                cli.threads != 1 ? format(", threads=%d", cli.threads).c_str()
                                 : "");
    for (const StorageMode storage : {StorageMode::kDemuxed, StorageMode::kMuxed}) {
      obs::Tracer* const run_tracer = tracer.has_value() ? &*tracer : nullptr;
      const int repeat = run_tracer != nullptr ? 1 : cli.repeat;
      const FleetRunRecord r = run_median(repeat, [&] {
        return run_cdn_case(setup, edges, per_edge, storage, cli.threads,
                            run_tracer);
      });
      print_record(r);
      // Machine-greppable line for CI floors and trend tracking.
      std::printf(
          "engine=%s topology=%s storage=%s clients=%d threads=%d "
          "steps_per_s=%.0f steps=%zu heap_pops=%llu wall_s=%.3f rss_mib=%.1f "
          "peak_rss_mib=%.1f cdn_hit=%.4f cdn_byte_hit=%.4f cdn_origin_mb=%.1f "
          "cdn_evictions=%zu double_removes=%llu\n",
          r.engine.c_str(), r.topology.c_str(), r.storage.c_str(), r.clients,
          r.threads, r.steps_per_s(), r.steps,
          static_cast<unsigned long long>(r.profile.heap_pops), r.wall_s,
          r.rss_mib, r.peak_rss_mib, r.cdn_hit_ratio, r.cdn_byte_hit_ratio,
          r.cdn_origin_mb, r.cdn_evictions,
          static_cast<unsigned long long>(r.double_removes));
      if (!guards_clean(r)) floor_met = false;
      if (cli.min_steps_per_s > 0.0 && r.steps_per_s() < cli.min_steps_per_s) {
        std::fprintf(stderr, "FAIL: %s steps_per_s %.0f below floor %.0f\n",
                     r.storage.c_str(), r.steps_per_s(), cli.min_steps_per_s);
        floor_met = false;
      }
      if (cli.max_rss_mib > 0.0 && r.peak_rss_mib > cli.max_rss_mib) {
        std::fprintf(stderr,
                     "FAIL: %s peak RSS %.1f MiB above ceiling %.1f MiB\n",
                     r.storage.c_str(), r.peak_rss_mib, cli.max_rss_mib);
        floor_met = false;
      }
      if (cli.min_cdn_hit > 0.0 && storage == StorageMode::kDemuxed &&
          r.cdn_hit_ratio < cli.min_cdn_hit) {
        std::fprintf(stderr, "FAIL: demuxed cdn hit ratio %.4f below floor %.4f\n",
                     r.cdn_hit_ratio, cli.min_cdn_hit);
        floor_met = false;
      }
      if (tracer.has_value()) {
        if (!write_trace(*tracer, cli.trace_out)) return 1;
        tracer.reset();  // only the first storage mode's run is captured
      }
    }
    return floor_met ? 0 : 1;
  }
  std::printf("=== fleet CLI: %d clients, trace=%s%s%s%s ===\n", cli.clients,
              cli.trace.c_str(),
              cli.disjoint ? ", disjoint 10-chain topology"
                           : (cli.topology ? ", sharded 10-edge topology" : ""),
              cli.threads != 1 ? format(", threads=%d", cli.threads).c_str() : "",
              cli.streaming ? ", streaming metrics" : "");
  // Telemetry exporters capture the first requested engine's run (the
  // timeline is byte-identical across engines, so the choice is cosmetic).
  bool telemetry_pending = !cli.telemetry_out.empty() || !cli.report_out.empty();
  for (const fleet::Engine engine : engines) {
    const bool telemetry = telemetry_pending;
    obs::Tracer* const run_tracer = tracer.has_value() ? &*tracer : nullptr;
    const int repeat = run_tracer != nullptr ? 1 : cli.repeat;
    const FleetRunRecord r = run_median(repeat, [&] {
      if (multi_link) {
        return run_topology_case(setup, edges, per_edge, engine, cli.profile,
                                 cli.threads, cli.streaming, cli.disjoint,
                                 telemetry, run_tracer);
      }
      fleet::FleetConfig config = fleet_config(cli.clients, engine);
      config.profile = cli.profile;
      config.threads = cli.threads;
      config.telemetry.enabled = telemetry;
      config.session.tracer = run_tracer;
      if (cli.streaming) config.streaming.client_threshold = 0;
      return run_configured(setup, tc, config);
    });
    print_record(r);
    // Machine-greppable line for CI floors and trend tracking. Idle ticks
    // run without a heap pop, so heap_pops well below steps shows the
    // event-heap engine's idle loop engaged (barrier rows print 0).
    std::printf(
        "engine=%s topology=%s clients=%d threads=%d streaming=%d "
        "steps_per_s=%.0f steps=%zu heap_pops=%llu wall_s=%.3f rss_mib=%.1f "
        "peak_rss_mib=%.1f double_removes=%llu\n",
        r.engine.c_str(), r.topology.c_str(), r.clients, r.threads,
        r.streaming ? 1 : 0, r.steps_per_s(), r.steps,
        static_cast<unsigned long long>(r.profile.heap_pops), r.wall_s, r.rss_mib,
        r.peak_rss_mib, static_cast<unsigned long long>(r.double_removes));
    if (!guards_clean(r)) floor_met = false;
    if (cli.profile) {
      std::printf("%s", r.profile.to_table().c_str());
    }
    if (cli.min_steps_per_s > 0.0 && r.steps_per_s() < cli.min_steps_per_s) {
      std::fprintf(stderr,
                   "FAIL: %s steps_per_s %.0f below floor %.0f\n",
                   r.engine.c_str(), r.steps_per_s(), cli.min_steps_per_s);
      floor_met = false;
    }
    if (cli.max_rss_mib > 0.0 && r.peak_rss_mib > cli.max_rss_mib) {
      std::fprintf(stderr, "FAIL: %s peak RSS %.1f MiB above ceiling %.1f MiB\n",
                   r.engine.c_str(), r.peak_rss_mib, cli.max_rss_mib);
      floor_met = false;
    }
    if (telemetry_pending && r.timeline.has_value()) {
      // detect_incidents also emits one engine-lane trace instant per
      // incident begin/end into the run's tracer, so the episodes are
      // visible inside the Chrome trace written below.
      const std::vector<obs::Incident> incidents =
          obs::detect_incidents(*r.timeline, {}, run_tracer);
      if (!cli.telemetry_out.empty()) {
        const Status st = write_file(cli.telemetry_out, r.timeline->to_ndjson());
        if (!st.ok()) {
          std::fprintf(stderr, "FAIL: cannot write %s: %s\n",
                       cli.telemetry_out.c_str(), st.error().c_str());
          return 1;
        }
      }
      if (!cli.report_out.empty()) {
        const Status st = write_file(
            cli.report_out,
            obs::telemetry_report(*r.timeline, incidents,
                                  format("bench_fleet: %d clients, %s",
                                         r.clients, r.trace.c_str())));
        if (!st.ok()) {
          std::fprintf(stderr, "FAIL: cannot write %s: %s\n",
                       cli.report_out.c_str(), st.error().c_str());
          return 1;
        }
      }
      std::printf("telemetry: %zu bins, %zu incidents%s%s%s%s\n",
                  r.timeline->bin_count(), incidents.size(),
                  cli.telemetry_out.empty() ? "" : ", ndjson ",
                  cli.telemetry_out.c_str(),
                  cli.report_out.empty() ? "" : ", report ",
                  cli.report_out.c_str());
      telemetry_pending = false;  // only the first engine's run is exported
    }
    if (tracer.has_value()) {
      if (!write_trace(*tracer, cli.trace_out)) return 1;
      tracer.reset();  // only the first engine's run is captured
    }
  }
  return floor_met ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_cli(argc, argv);
  if (cli.cli_mode) return run_cli(cli);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
