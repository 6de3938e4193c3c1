// perfbench_runner: runs one named demuxabr workload in this process and
// prints one JSON object describing it on stdout (see README.md).
//
//   perfbench_runner --workload NAME --seed N [--mode setup|run]
//                    [--seconds S] [--trace 0|1] [--small] [--spans PATH]
//
// --mode setup builds the workload's inputs once and reports how long that
// took; run.py calls it in fresh processes because the drama content is
// cached process-wide. --mode run sets up, runs one warm-up repetition that
// is not timed, then repeats the workload until S seconds have passed,
// timing a host-speed probe pass before the first repetition and after each
// one. With --trace 1 untraced and traced repetitions alternate, and the
// traced ones also collect the per-layer numbers and the spans written to PATH.
//
// Everything here observes the library from outside: players are wrapped
// in a timing decorator, layer calls are timed around their public entry
// points, and the remaining numbers are counters the results already carry.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "experiments/sweep.h"
#include "fleet/cdn_fleet.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/scheduler.h"
#include "fleet/shard.h"
#include "fleet/topology.h"
#include "net/trace_corpus.h"
#include "obs/incidents.h"
#include "perfbench_build_info.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "util/strings.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

// --- Host-speed probe ---
//
// On a shared host the speed of memory-bound code drifts by up to 1.7x
// within a minute, because other tenants contend for the caches; a timed
// repetition measures that drift as much as the library. The probe is a
// fixed pass of the kind of work the simulator does (a bounded event heap,
// an ordered map, short-lived vectors, a little floating point). It uses
// none of the library, so no library change moves it. Timing it next to
// every repetition gives the host's speed at that moment, and a repetition
// is reported in host-normalized seconds: wall seconds x kProbeRefS / probe
// seconds, the time it would have taken on a host where one pass takes
// kProbeRefS.

constexpr double kProbeRefS = 0.05;

void probe_work() {
  std::uint64_t x = 7;
  std::uint64_t sum = 0;
  double acc = 0.0;
  std::priority_queue<std::pair<double, std::uint64_t>> heap;
  std::map<std::uint64_t, std::uint64_t> table;
  for (int k = 0; k < 120000; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.emplace(static_cast<double>(x % 100000), x);
    if (heap.size() > 4096) {
      sum += heap.top().second;
      heap.pop();
    }
    table[x % 16384] += static_cast<std::uint64_t>(k);
    const std::vector<double> chunk(16 + x % 64, 1.0);
    acc += std::log1p(static_cast<double>(x % 1000)) * chunk.back();
  }
  volatile std::uint64_t sink = sum + table.size() + static_cast<std::uint64_t>(acc);
  (void)sink;
}

/// One probe pass on each of `threads` threads at once, as a workload that
/// runs on that many threads; returns the wall time until all are done.
double probe_pass(int threads = 1) {
  const auto t0 = Clock::now();
  std::vector<std::thread> helpers;
  for (int i = 1; i < threads; ++i) helpers.emplace_back(probe_work);
  probe_work();
  for (std::thread& helper : helpers) helper.join();
  return seconds_since(t0);
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t hash = 14695981039346656037ULL) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  return format("%016llx", static_cast<unsigned long long>(value));
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

/// Layer metric name -> value for one traced repetition.
using Layers = std::map<std::string, double>;

// --- Spans: kept in memory, written as Chrome trace events at exit. ---

class SpanLog {
 public:
  int open(const std::string& name, int parent) {
    spans_.push_back({static_cast<int>(spans_.size()) + 1, parent, name,
                      seconds_since(origin_), -1.0});
    return spans_.back().id;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id - 1)].end_s = seconds_since(origin_); }
  /// A span whose interval was measured elsewhere (sweep jobs).
  void add(const std::string& name, int parent, Clock::time_point start, double dur_s) {
    const double start_s = seconds_between(origin_, start);
    spans_.push_back({static_cast<int>(spans_.size()) + 1, parent, name, start_s,
                      start_s + dur_s});
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << format(
          "  {\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
          "\"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}%s\n",
          json_string(s.name).c_str(), s.start_s * 1e6, (s.end_s - s.start_s) * 1e6,
          s.id, s.parent, i + 1 < spans_.size() ? "," : "");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    int id;
    int parent;  ///< 0 = root
    std::string name;
    double start_s;
    double end_s;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null log
/// (untraced repetitions) makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent)
      : log_(log), id_(log != nullptr ? log->open(name, parent) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// --- Player layer: a decorator that counts and times every call. ---

struct PlayerCalls {
  double polls = 0;
  double idle_polls = 0;  ///< next_request returned nullopt
  double poll_s = 0;
  double progress_calls = 0;
  double progress_s = 0;
  double completions = 0;
  double completion_s = 0;
  double abandon_checks = 0;
  double abandons = 0;
  double abandon_s = 0;

  void add(const PlayerCalls& o) {
    polls += o.polls;
    idle_polls += o.idle_polls;
    poll_s += o.poll_s;
    progress_calls += o.progress_calls;
    progress_s += o.progress_s;
    completions += o.completions;
    completion_s += o.completion_s;
    abandon_checks += o.abandon_checks;
    abandons += o.abandons;
    abandon_s += o.abandon_s;
  }
  [[nodiscard]] double busy_s() const { return poll_s + progress_s + completion_s + abandon_s; }
};

/// Per-label totals. Each player counts into its own PlayerCalls and folds
/// them in here once, when it is destroyed; the lock makes that safe when
/// shards run on several threads.
class PlayerLedger {
 public:
  void fold(const std::string& label, const PlayerCalls& calls) {
    const std::lock_guard<std::mutex> lock(mu_);
    by_label_[label].add(calls);
  }
  [[nodiscard]] std::map<std::string, PlayerCalls> snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return by_label_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, PlayerCalls> by_label_;
};

class TimedPlayer final : public PlayerAdapter {
 public:
  TimedPlayer(std::unique_ptr<PlayerAdapter> inner, std::string label, PlayerLedger& ledger)
      : inner_(std::move(inner)), label_(std::move(label)), ledger_(ledger) {}
  ~TimedPlayer() override { ledger_.fold(label_, calls_); }
  TimedPlayer(const TimedPlayer&) = delete;
  TimedPlayer& operator=(const TimedPlayer&) = delete;

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void start(const ManifestView& view) override { inner_->start(view); }
  [[nodiscard]] int max_concurrent_downloads() const override {
    return inner_->max_concurrent_downloads();
  }
  std::optional<DownloadRequest> next_request(const PlayerContext& ctx) override {
    const auto t0 = Clock::now();
    std::optional<DownloadRequest> request = inner_->next_request(ctx);
    calls_.poll_s += seconds_since(t0);
    calls_.polls += 1;
    if (!request.has_value()) calls_.idle_polls += 1;
    return request;
  }
  void on_progress(const ProgressSample& sample) override {
    const auto t0 = Clock::now();
    inner_->on_progress(sample);
    calls_.progress_s += seconds_since(t0);
    calls_.progress_calls += 1;
  }
  bool should_abandon(const ProgressSample& sample, const PlayerContext& ctx) override {
    const auto t0 = Clock::now();
    const bool abandon = inner_->should_abandon(sample, ctx);
    calls_.abandon_s += seconds_since(t0);
    calls_.abandon_checks += 1;
    if (abandon) calls_.abandons += 1;
    return abandon;
  }
  void on_chunk_complete(const ChunkCompletion& completion, const PlayerContext& ctx) override {
    const auto t0 = Clock::now();
    inner_->on_chunk_complete(completion, ctx);
    calls_.completion_s += seconds_since(t0);
    calls_.completions += 1;
  }
  [[nodiscard]] double bandwidth_estimate_kbps() const override {
    return inner_->bandwidth_estimate_kbps();
  }

 private:
  std::unique_ptr<PlayerAdapter> inner_;
  std::string label_;
  PlayerLedger& ledger_;
  PlayerCalls calls_;
};

std::function<std::unique_ptr<PlayerAdapter>()> timed_factory(
    std::function<std::unique_ptr<PlayerAdapter>()> inner, const std::string& label,
    PlayerLedger& ledger) {
  return [inner = std::move(inner), label, &ledger]() -> std::unique_ptr<PlayerAdapter> {
    return std::make_unique<TimedPlayer>(inner(), label, ledger);
  };
}

/// Per-label poll times cover every comparison player, so the metric set is
/// the same on every workload (labels a workload does not run read 0).
void add_player_layers(const PlayerLedger& ledger, Layers& layers) {
  PlayerCalls all;
  const std::map<std::string, PlayerCalls> by_label = ledger.snapshot();
  for (const auto& [label, calls] : by_label) all.add(calls);
  for (const ex::ComparisonPlayer& p : ex::comparison_players()) {
    const auto it = by_label.find(p.label);
    layers["players." + p.label + ".poll_s"] = it != by_label.end() ? it->second.poll_s : 0.0;
  }
  layers["players.polls"] = all.polls;
  layers["players.idle_poll_ratio"] = all.polls > 0 ? all.idle_polls / all.polls : 0.0;
  layers["players.poll_s"] = all.poll_s;
  layers["players.progress_calls"] = all.progress_calls;
  layers["players.progress_s"] = all.progress_s;
  layers["players.completion_s"] = all.completion_s;
  layers["players.abandon_checks"] = all.abandon_checks;
  layers["players.abandons"] = all.abandons;
  layers["players.abandon_s"] = all.abandon_s;
  layers["players.busy_s"] = all.busy_s();
}

// --- Workloads ---

/// One repetition's outcome: what the end-to-end metrics and the output
/// checks need.
struct RepOutcome {
  double wall_s = 0.0;
  double sim_s = 0.0;  ///< simulated session-seconds
  std::optional<std::uint64_t> digest;  ///< set when the repetition was fingerprinted
  std::size_t sessions = 0;
  std::size_t capped = 0;  ///< sessions that neither completed nor churned
  std::vector<std::string> problems;  ///< failed output checks
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Threads the workload runs on.
  virtual int threads() const { return 1; }
  /// One repetition. `layers` and `spans` are null on untraced repetitions.
  /// `fingerprint` asks for the output digest, which can cost more than the
  /// repetition itself (the sweep serializes every session's time series).
  virtual RepOutcome run(Layers* layers, SpanLog* spans, int parent_span, bool fingerprint) = 0;
};

struct FleetShape {
  int edges = 0;  ///< 0 = one shared bottleneck
  int per_edge = 0;
  int clients = 0;
  bool shared_core = false;  ///< edges funnel into one core (else disjoint chains)
  bool cache = false;        ///< LRU edge cache on every chain
  bool streaming = false;
  bool telemetry = false;    ///< timeline on, incidents + NDJSON after the run
  int threads = 1;
};

/// 60% ExoPlayer, 25% dash.js, 15% coordinated.
std::vector<fleet::PlayerShare> population_mix() {
  std::vector<fleet::PlayerShare> mix;
  mix.push_back({"exoplayer", [] { return std::make_unique<ExoPlayerModel>(); }, 0.60});
  mix.push_back({"dashjs", [] { return std::make_unique<DashJsPlayerModel>(); }, 0.25});
  mix.push_back({"coordinated", [] { return std::make_unique<CoordinatedPlayer>(); }, 0.15});
  return mix;
}

/// Client -> access -> edge -> shared core, per-capita scaled: ample access
/// (2500 kbps/client), edge at the single-session operating point
/// (900 kbps/client) and an undersized core (700 kbps/client), so the
/// binding constraint moves between edge and core as edges fill.
fleet::TopologySpec sharded_spec(int edges, int per_edge) {
  const double n = static_cast<double>(per_edge);
  fleet::TopologySpec spec = fleet::TopologySpec::sharded(
      edges, BandwidthTrace::constant(2500.0 * n), BandwidthTrace::constant(900.0 * n),
      BandwidthTrace::constant(700.0 * n * edges));
  spec.video_assignment = fleet::TopologySpec::block_assignment(
      static_cast<std::size_t>(edges), static_cast<std::size_t>(per_edge));
  return spec;
}

/// Causally independent edge -> core chains, one per shard, with an
/// optional LRU cache of `cache_bytes` on each chain's edge link.
fleet::TopologySpec chain_spec(int edges, int per_edge, std::int64_t cache_bytes) {
  const double n = static_cast<double>(per_edge);
  fleet::TopologySpec spec;
  for (int e = 0; e < edges; ++e) {
    const std::size_t edge = spec.add_link(format("edge-%d", e), BandwidthTrace::constant(900.0 * n));
    const std::size_t core = spec.add_link(format("core-%d", e), BandwidthTrace::constant(700.0 * n));
    spec.add_path(format("chain-%d", e), {edge, core});
    if (cache_bytes > 0) spec.links[edge].cache = fleet::CacheSpec{cache_bytes, -1};
  }
  spec.video_assignment = fleet::TopologySpec::block_assignment(
      static_cast<std::size_t>(edges), static_cast<std::size_t>(per_edge));
  return spec;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(const FleetShape& shape, std::uint64_t seed) : shape_(shape) {
    setup_ = ex::plain_dash(BandwidthTrace::constant(1000.0), "perfbench");
    trace_ = BandwidthTrace::constant(800.0 * shape.clients);
    config_.client_count = shape.clients;
    config_.seed = seed;
    config_.engine = fleet::Engine::kEventHeap;
    config_.threads = shape.threads;
    config_.arrivals = fleet::ArrivalProcess::kPoisson;
    config_.arrival_rate_per_s = 1.0;
    config_.players = population_mix();
    config_.churn.leave_probability = 0.1;
    config_.churn.min_watch_s = 30.0;
    config_.churn.max_watch_s = 120.0;
    config_.session.max_sim_time_s = 1800.0;
    config_.telemetry.enabled = shape.telemetry;
    if (shape.streaming) config_.streaming.client_threshold = 0;
    if (shape.edges > 0 && shape.shared_core) {
      config_.topology = sharded_spec(shape.edges, shape.per_edge);
    } else if (shape.edges > 0) {
      std::int64_t cache_bytes = 0;
      if (shape.cache) {
        const auto t0 = Clock::now();
        config_.cdn.catalog = fleet::make_fleet_catalog(setup_.content, StorageMode::kDemuxed);
        catalog_build_s_ = seconds_since(t0);
        cache_bytes = config_.cdn.catalog->total_bytes() / 4;
      }
      config_.topology = chain_spec(shape.edges, shape.per_edge, cache_bytes);
    }
    const auto t0 = Clock::now();
    plans_ = fleet::plan_population(config_);
    plan_s_ = seconds_since(t0);
  }

  int threads() const override { return shape_.threads; }

  RepOutcome run(Layers* layers, SpanLog* spans, int parent_span, bool fingerprint) override {
    fleet::FleetConfig config = config_;
    PlayerLedger ledger;
    if (layers != nullptr) {
      config.profile = true;
      for (fleet::PlayerShare& share : config.players) {
        share.factory = timed_factory(std::move(share.factory), share.label, ledger);
      }
    }
    RepOutcome out;
    std::optional<fleet::FleetResult> result;
    const auto t0 = Clock::now();
    {
      const ScopedSpan span(spans, "run", parent_span);
      result.emplace(fleet::run_fleet(setup_.content, setup_.view, trace_, config));
    }
    const auto t1 = Clock::now();
    {
      const ScopedSpan span(spans, "aggregation", parent_span);
      const fleet::FleetMetrics metrics = fleet::compute_fleet_metrics(*result);
      if (metrics.clients != shape_.clients) {
        out.problems.push_back(format("metrics cover %d of %d clients", metrics.clients,
                                      shape_.clients));
      }
    }
    const auto t2 = Clock::now();
    double detect_s = 0.0;
    double export_s = 0.0;
    std::size_t incident_count = 0;
    if (shape_.telemetry) {
      const ScopedSpan span(spans, "export", parent_span);
      if (!result->timeline.has_value()) {
        out.problems.push_back("telemetry was enabled but the result has no timeline");
      } else {
        incident_count = obs::detect_incidents(*result->timeline).size();
        const auto t3 = Clock::now();
        detect_s = seconds_between(t2, t3);
        if (result->timeline->to_ndjson().empty()) out.problems.push_back("empty timeline export");
        export_s = seconds_since(t3);
      }
    }
    out.wall_s = seconds_since(t0);

    {
      const ScopedSpan span(spans, "check", parent_span);
      check(*result, fingerprint, out);
    }
    if (layers != nullptr) {
      fill_layers(*result, ledger, seconds_between(t0, t1), seconds_between(t1, t2), detect_s,
                  export_s, incident_count, *layers);
    }
    return out;
  }

 private:
  void check(const fleet::FleetResult& result, bool fingerprint, RepOutcome& out) const {
    if (fingerprint) out.digest = fnv1a(fleet_fingerprint(result));
    std::size_t clients = 0;
    std::size_t completed = 0;
    std::size_t departed = 0;
    if (result.streaming.has_value()) {
      clients = result.streaming->clients;
      completed = result.streaming->completed;
      departed = result.streaming->departed_early;
      out.sim_s = result.streaming->active_s_sum;
    } else {
      clients = result.clients.size();
      for (const fleet::ClientResult& client : result.clients) {
        if (client.log.completed) ++completed;
        if (client.departed_early) ++departed;
        out.sim_s += client.log.end_time_s - client.arrival_s;
      }
    }
    out.sessions = plans_.size();
    if (clients != plans_.size() || completed + departed > clients) {
      out.problems.push_back(format("%zu completed + %zu churned of %zu clients, %zu planned",
                                    completed, departed, clients, plans_.size()));
    }
    out.capped = clients >= completed + departed ? clients - completed - departed : 0;
    const auto residual = [&out](const std::string& what, int flows) {
      if (flows != 0) out.problems.push_back(format("%s: %d residual flows", what.c_str(), flows));
    };
    residual("video link", result.video_link.residual_flows);
    residual("audio link", result.audio_link.residual_flows);
    for (const fleet::LinkStats& link : result.links) residual(link.name, link.residual_flows);
    for (const fleet::PathSummary& path : result.paths) residual(path.name, path.residual_flows);
    for (const fleet::CdnStats& cdn : result.cdns) {
      if (cdn.edge_hits > cdn.requests ||
          cdn.edge_hits + cdn.regional_hits + cdn.origin_fetches != cdn.requests) {
        out.problems.push_back(format("%s: inconsistent cache counts", cdn.link_name.c_str()));
      }
    }
    if (shape_.cache && result.cdns.empty()) out.problems.push_back("no CDN statistics");
    if (!(out.sim_s > 0.0)) out.problems.push_back("no simulated time");
  }

  void fill_layers(const fleet::FleetResult& result, const PlayerLedger& ledger, double run_s,
                   double compute_s, double detect_s, double export_s,
                   std::size_t incident_count, Layers& layers) const {
    add_player_layers(ledger, layers);
    const obs::EngineProfile& profile = result.profile;
    layers["fleet.engine.steps"] = static_cast<double>(result.steps);
    layers["fleet.engine.heap_pops"] = static_cast<double>(profile.heap_pops);
    layers["fleet.engine.link_sync_checks"] = static_cast<double>(profile.link_sync_checks);
    layers["fleet.engine.link_sync_refresh_ratio"] =
        profile.link_sync_checks > 0 ? static_cast<double>(profile.link_sync_refreshes) /
                                           static_cast<double>(profile.link_sync_checks)
                                     : 0.0;
    layers["fleet.engine.drain_s"] = profile.drain.wall_s;
    layers["fleet.engine.register_s"] = profile.register_phase.wall_s;
    layers["fleet.engine.admit_s"] = profile.admit.wall_s;
    // Player time summed over shard threads is not a share of one wall
    // clock, so the split is only reported for serial runs.
    layers["fleet.non_player_s"] =
        config_.threads == 1 ? run_s - layers["players.busy_s"] : 0.0;
    layers["fleet.run_s"] = run_s;
    layers["fleet.metrics.compute_s"] = compute_s;
    layers["fleet.population.plan_s"] = plan_s_;

    // Network: flows that joined a channel, and the hops each one touched.
    double flow_joins = 0.0;
    double hop_joins = 0.0;
    if (!result.cdns.empty()) {
      // Every flow of a cache-aware chain is admitted through the cache:
      // hits ride the 1-hop edge prefix, misses the whole 2-hop chain.
      for (const fleet::CdnStats& cdn : result.cdns) {
        const double joins = static_cast<double>(cdn.requests + cdn.uncacheable);
        flow_joins += joins;
        hop_joins += 2.0 * joins - static_cast<double>(cdn.edge_hits);
      }
    } else {
      for (const fleet::ClientResult& client : result.clients) {
        const auto joins =
            static_cast<double>(client.log.download_count() + client.log.abandoned_count());
        const std::size_t hops =
            client.video_path >= 0 ? result.paths[static_cast<std::size_t>(client.video_path)]
                                         .hop_names.size()
                                   : 1;
        flow_joins += joins;
        hop_joins += joins * static_cast<double>(hops);
      }
    }
    layers["net.flow_joins"] = flow_joins;
    layers["net.hop_joins"] = hop_joins;
    std::vector<fleet::LinkStats> links = result.links;
    if (links.empty()) links.push_back(result.video_link);
    double peak = 0.0;
    double delivered = 0.0;
    double offered = 0.0;
    double core_binding = 0.0;
    double edge_binding = 0.0;
    for (const fleet::LinkStats& link : links) {
      peak = std::max(peak, static_cast<double>(link.peak_flows));
      delivered += link.delivered_kbit;
      offered += link.offered_kbit;
      if (starts_with(link.name, "core")) core_binding += link.binding_s;
      if (starts_with(link.name, "edge")) edge_binding += link.binding_s;
    }
    layers["net.peak_flows"] = peak;
    layers["net.utilization"] = offered > 0.0 ? delivered / offered : 0.0;
    layers["net.core_binding_s"] = core_binding;
    layers["net.edge_binding_s"] = edge_binding;

    std::int64_t requests = 0;
    std::int64_t edge_hits = 0;
    std::int64_t edge_bytes = 0;
    std::int64_t all_bytes = 0;
    std::int64_t origin_bytes = 0;
    std::size_t evictions = 0;
    for (const fleet::CdnStats& cdn : result.cdns) {
      requests += cdn.requests;
      edge_hits += cdn.edge_hits;
      edge_bytes += cdn.edge_hit_bytes;
      all_bytes += cdn.edge_hit_bytes + cdn.regional_hit_bytes + cdn.origin_bytes;
      origin_bytes += cdn.origin_bytes;
      evictions += cdn.edge_evictions;
    }
    layers["cdn.requests"] = static_cast<double>(requests);
    layers["cdn.edge_hit_ratio"] =
        requests > 0 ? static_cast<double>(edge_hits) / static_cast<double>(requests) : 0.0;
    layers["cdn.byte_hit_ratio"] =
        all_bytes > 0 ? static_cast<double>(edge_bytes) / static_cast<double>(all_bytes) : 0.0;
    layers["cdn.evictions"] = static_cast<double>(evictions);
    layers["cdn.origin_mb"] = static_cast<double>(origin_bytes) / (1024.0 * 1024.0);
    layers["cdn.catalog_build_s"] = catalog_build_s_;
    if (config_.topology.has_value() && config_.threads != 1) {
      const auto t0 = Clock::now();
      const fleet::ShardPartition partition = fleet::partition_fleet(*config_.topology, plans_);
      layers["fleet.shard.partition_s"] = seconds_since(t0);
      layers["fleet.shard.count"] = static_cast<double>(partition.shards.size());
    }

    layers["obs.telemetry.bins"] =
        result.timeline.has_value() ? static_cast<double>(result.timeline->bin_count()) : 0.0;
    layers["obs.incidents.count"] = static_cast<double>(incident_count);
    layers["obs.incidents.detect_s"] = detect_s;
    layers["obs.timeline.export_s"] = export_s;
  }

  FleetShape shape_;
  ex::ExperimentSetup setup_;
  BandwidthTrace trace_;
  fleet::FleetConfig config_;
  std::vector<fleet::ClientPlan> plans_;
  double plan_s_ = 0.0;
  double catalog_build_s_ = 0.0;
};

/// Every comparison player on every corpus trace class, `seeds` traces per
/// class, as solo sessions through the SweepRunner: the leaderboard's
/// session grid.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(int seeds, std::uint64_t seed) {
    constexpr double kTraceDurationS = 480.0;
    const auto t0 = Clock::now();
    std::vector<std::pair<std::string, BandwidthTrace>> traces;
    for (const TraceClass& tc : trace_class_registry()) {
      for (int r = 0; r < seeds; ++r) {
        const std::uint64_t trace_seed = seed * 1000 + static_cast<std::uint64_t>(r);
        BandwidthTrace trace = tc.generate(kTraceDurationS, trace_seed);
        const std::string violation = check_envelope(trace, tc.envelope);
        if (!violation.empty()) {
          setup_problems_.push_back(format("%s#%llu violates its envelope: %s", tc.name.c_str(),
                                           static_cast<unsigned long long>(trace_seed),
                                           violation.c_str()));
        }
        traces.emplace_back(format("%s#%llu", tc.name.c_str(),
                                   static_cast<unsigned long long>(trace_seed)),
                            std::move(trace));
      }
    }
    corpus_s_ = seconds_since(t0);
    const auto& players = ex::comparison_players();
    for (const auto& [trace_name, trace] : traces) {
      for (std::size_t p = 0; p < players.size(); ++p) {
        ex::SweepJob job;
        job.id = players[p].label + "/" + trace_name;
        job.player = players[p].label;
        job.trace = trace_name;
        job.setup = std::make_shared<const ex::ExperimentSetup>(
            ex::comparison_setup(p, trace, trace_name));
        job.make_player = players[p].factory;
        jobs_.push_back(std::move(job));
      }
    }
  }

  RepOutcome run(Layers* layers, SpanLog* spans, int parent_span, bool fingerprint) override {
    std::vector<ex::SweepJob> jobs = jobs_;
    PlayerLedger ledger;
    // The runner is serial, so job i starts when its player is built.
    std::vector<Clock::time_point> job_starts;
    if (layers != nullptr) {
      job_starts.reserve(jobs.size());
      for (ex::SweepJob& job : jobs) {
        auto factory = timed_factory(std::move(job.make_player), job.player, ledger);
        job.make_player = [factory = std::move(factory), &job_starts] {
          job_starts.push_back(Clock::now());
          return factory();
        };
      }
    }
    ex::SweepOptions options;
    options.threads = 1;
    options.with_qoe = true;
    RepOutcome out;
    out.problems = setup_problems_;
    const auto t0 = Clock::now();
    ex::SweepResult result;
    int run_span = 0;
    {
      const ScopedSpan span(spans, "run", parent_span);
      run_span = span.id();
      result = ex::SweepRunner(options).run(jobs);
    }
    out.wall_s = seconds_since(t0);

    std::vector<double> job_ms;
    double flow_joins = 0.0;
    {
      const ScopedSpan span(spans, "check", parent_span);
      std::uint64_t digest = 14695981039346656037ULL;
      for (const ex::SweepJobResult& job : result.jobs) {
        if (fingerprint) digest = fnv1a(ex::log_fingerprint(job.log), digest);
        out.sim_s += job.log.end_time_s;
        if (!job.completed) ++out.capped;
        job_ms.push_back(job.wall_s * 1e3);
        flow_joins += static_cast<double>(job.log.download_count() + job.log.abandoned_count());
      }
      if (fingerprint) out.digest = digest;
      out.sessions = jobs.size();
      if (result.jobs.size() != jobs.size()) {
        out.problems.push_back(format("%zu results for %zu jobs", result.jobs.size(), jobs.size()));
      }
      if (!(out.sim_s > 0.0)) out.problems.push_back("no simulated time");
    }

    if (layers != nullptr) {
      add_player_layers(ledger, *layers);
      std::sort(job_ms.begin(), job_ms.end());
      const auto rank = [&job_ms](double q) {
        if (job_ms.empty()) return 0.0;
        const auto i = static_cast<std::size_t>(q * static_cast<double>(job_ms.size() - 1) + 0.5);
        return job_ms[i];
      };
      (*layers)["experiments.sweep.job_ms_p50"] = rank(0.50);
      (*layers)["experiments.sweep.job_ms_p95"] = rank(0.95);
      (*layers)["experiments.setup.corpus_s"] = corpus_s_;
      (*layers)["net.flow_joins"] = flow_joins;
      (*layers)["net.hop_joins"] = flow_joins;
      if (spans != nullptr && job_starts.size() == result.jobs.size()) {
        for (std::size_t i = 0; i < job_starts.size(); ++i) {
          spans->add("sweep.job " + result.jobs[i].id, run_span, job_starts[i],
                     result.jobs[i].wall_s);
        }
      }
    }
    return out;
  }

 private:
  std::vector<ex::SweepJob> jobs_;
  std::vector<std::string> setup_problems_;
  double corpus_s_ = 0.0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, bool small) {
  FleetShape shape;
  if (name == "single-1000") {
    shape.clients = small ? 100 : 1000;
  } else if (name == "sharded-10x50") {
    shape.edges = 10;
    shape.per_edge = small ? 5 : 50;
    shape.shared_core = true;
    shape.telemetry = true;
  } else if (name == "cdn-10x100") {
    shape.edges = 10;
    shape.per_edge = small ? 10 : 100;
    shape.cache = true;
    shape.streaming = true;
    shape.threads = 2;
  } else if (name == "corpus-sweep") {
    return std::make_unique<SweepWorkload>(small ? 1 : 16, seed);
  } else {
    return nullptr;
  }
  if (shape.edges > 0) shape.clients = shape.edges * shape.per_edge;
  return std::make_unique<FleetWorkload>(shape, seed);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string mode = "run";
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string spans_path;
};

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N [--mode setup|run]\n"
               "                        [--seconds S] [--trace 0|1] [--small] [--spans PATH]\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--mode") {
      args.mode = value();
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      args.trace = value() != "0";
    } else if (flag == "--small") {
      args.small = true;
    } else if (flag == "--spans") {
      args.spans_path = value();
    } else {
      usage();
    }
  }
  if (args.workload.empty() || (args.mode != "run" && args.mode != "setup") ||
      !(args.seconds > 0.0)) {
    usage();
  }
  return args;
}

std::string layers_json(const Layers& layers) {
  std::string out = "{";
  for (const auto& [name, value] : layers) {
    if (out.size() > 1) out += ", ";
    out += json_string(name) + format(": %.17g", value);
  }
  return out + "}";
}

int run_main(const Args& args) {
  const auto t0 = Clock::now();
  const std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed, args.small);
  const double setup_s = seconds_since(t0);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.mode == "setup") {
    probe_pass();  // the first pass pays for this process's fresh allocator pages
    std::printf("{\"setup_s\": %.17g, \"probe_s\": %.17g}\n", setup_s, probe_pass());
    return 0;
  }

  SpanLog spans;
  SpanLog* span_log = args.trace ? &spans : nullptr;
  if (span_log != nullptr) spans.add("setup", 0, t0, setup_s);

  // Warm-up: fills allocator pools and caches; never timed.
  const RepOutcome warm = workload->run(nullptr, nullptr, 0, true);

  struct Timed {
    bool traced;
    RepOutcome outcome;
    double probe_s = 0.0;  ///< mean of the probe passes just before and after
  };
  std::vector<Timed> reps;
  std::vector<Layers> traced_layers;
  const int min_each = 3;
  int untraced = 0;
  int traced = 0;
  const int probe_threads = workload->threads();
  probe_pass(probe_threads);
  double probe_before_s = probe_pass(probe_threads);
  const auto start = Clock::now();
  while (seconds_since(start) < args.seconds || untraced < min_each ||
         (args.trace && traced < min_each)) {
    const bool trace_this = args.trace && traced < untraced;
    if (trace_this) {
      const ScopedSpan rep_span(span_log, "rep", 0);
      Layers layers;
      reps.push_back({true, workload->run(&layers, span_log, rep_span.id(), true)});
      traced_layers.push_back(std::move(layers));
      ++traced;
    } else {
      reps.push_back({false, workload->run(nullptr, nullptr, 0, false)});
      ++untraced;
    }
    const double probe_after_s = probe_pass(probe_threads);
    reps.back().probe_s = 0.5 * (probe_before_s + probe_after_s);
    probe_before_s = probe_after_s;
  }

  // A repeat of the warm-up, fingerprinted after the loop so that the
  // check's cost does not eat into the timed section; it is not timed.
  std::vector<Timed> checked = reps;
  checked.push_back({false, workload->run(nullptr, nullptr, 0, true), 0.0});

  // Checks: every fingerprinted repetition must reproduce the warm-up's
  // digest, so repeats agree and the traced output equals the untraced one.
  std::vector<std::string> problems = warm.problems;
  for (const Timed& rep : checked) {
    for (const std::string& p : rep.outcome.problems) {
      if (std::find(problems.begin(), problems.end(), p) == problems.end()) problems.push_back(p);
    }
    if (rep.outcome.digest.has_value() && rep.outcome.digest != warm.digest) {
      problems.push_back(format("%s repetition digest %s differs from %s",
                                rep.traced ? "traced" : "untraced",
                                hex64(*rep.outcome.digest).c_str(), hex64(*warm.digest).c_str()));
    }
  }

  // Per-layer values: the median over traced repetitions (counts repeat
  // exactly; times vary).
  Layers layers;
  if (!traced_layers.empty()) {
    for (const auto& [name, unused] : traced_layers.front()) {
      (void)unused;
      std::vector<double> values;
      for (const Layers& l : traced_layers) {
        const auto it = l.find(name);
        if (it != l.end()) values.push_back(it->second);
      }
      std::sort(values.begin(), values.end());
      layers[name] = values[values.size() / 2];
    }
  }
  if (span_log != nullptr && !args.spans_path.empty() && !spans.write(args.spans_path)) {
    problems.push_back("cannot write spans to " + args.spans_path);
  }

  std::string out = "{";
  out += format("\"workload\": %s, \"seed\": %llu, \"small\": %s, ",
                json_string(args.workload).c_str(), static_cast<unsigned long long>(args.seed),
                args.small ? "true" : "false");
  out += format("\"setup_s\": %.17g, \"peak_rss_mib\": %.17g, \"probe_ref_s\": %.17g, ", setup_s,
                peak_rss_mib(), kProbeRefS);
  out += format("\"digest\": \"%s\", \"sessions_per_rep\": %zu, ", hex64(*warm.digest).c_str(),
                warm.sessions);
  out += "\"reps\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepOutcome& r = reps[i].outcome;
    out += format("%s{\"traced\": %s, \"wall_s\": %.17g, \"sim_s\": %.17g, \"probe_s\": %.17g, "
                  "\"sessions\": %zu, \"capped\": %zu}",
                  i > 0 ? ", " : "", reps[i].traced ? "true" : "false", r.wall_s, r.sim_s,
                  reps[i].probe_s, r.sessions, r.capped);
  }
  out += "], \"problems\": [";
  for (std::size_t i = 0; i < problems.size(); ++i) {
    out += (i > 0 ? ", " : "") + json_string(problems[i]);
  }
  out += "], \"layers\": " + layers_json(layers);
  out += format(", \"compiler\": %s, \"build_type\": %s, \"cxx_flags\": %s}",
                json_string(PERFBENCH_COMPILER).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
                json_string(PERFBENCH_CXX_FLAGS).c_str());
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run_main(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
}
