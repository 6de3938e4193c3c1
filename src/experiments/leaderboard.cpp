#include "experiments/leaderboard.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "fleet/metrics.h"
#include "fleet/scheduler.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/strings.h"

namespace demuxabr::experiments {
namespace {

/// Resolve a requested subset against a canonical ordering: empty request =
/// everything; otherwise validate every name and emit the canonical order
/// (so permuted configs produce identical leaderboards).
std::vector<std::string> resolve_subset(const std::vector<std::string>& requested,
                                        const std::vector<std::string>& canonical,
                                        const char* what) {
  if (requested.empty()) return canonical;
  for (const std::string& name : requested) {
    if (std::find(canonical.begin(), canonical.end(), name) == canonical.end()) {
      throw std::invalid_argument(format("unknown %s '%s'", what, name.c_str()));
    }
  }
  std::vector<std::string> resolved;
  for (const std::string& name : canonical) {
    if (std::find(requested.begin(), requested.end(), name) != requested.end()) {
      resolved.push_back(name);
    }
  }
  return resolved;
}

std::vector<std::string> canonical_player_labels() {
  std::vector<std::string> labels;
  for (const ComparisonPlayer& p : comparison_players()) labels.push_back(p.label);
  return labels;
}

std::vector<std::string> canonical_class_names() {
  std::vector<std::string> names;
  for (const TraceClass& tc : trace_class_registry()) names.push_back(tc.name);
  return names;
}

std::size_t player_index(const std::string& label) {
  const auto& players = comparison_players();
  for (std::size_t i = 0; i < players.size(); ++i) {
    if (players[i].label == label) return i;
  }
  throw std::invalid_argument(format("unknown player '%s'", label.c_str()));
}

/// Metric direction: true = higher is better.
bool higher_is_better(const std::string& metric) {
  return metric == "qoe" || metric == "video_kbps" || metric == "fairness";
}

const BootstrapCi& cell_metric(const LeaderboardCell& cell, const std::string& metric) {
  if (metric == "qoe") return cell.qoe;
  if (metric == "video_kbps") return cell.video_kbps;
  if (metric == "stall_ratio") return cell.stall_ratio;
  if (metric == "startup_s") return cell.startup_s;
  if (metric == "imbalance_s") return cell.imbalance_s;
  assert(metric == "fairness");
  return cell.fairness;
}

std::string ci_json(const BootstrapCi& ci) {
  return format("{\"mean\": %.9g, \"lo\": %.9g, \"hi\": %.9g, \"n\": %zu}", ci.mean,
                ci.lo, ci.hi, ci.n);
}

}  // namespace

const std::vector<std::string>& leaderboard_metrics() {
  static const std::vector<std::string> metrics = {
      "qoe", "video_kbps", "stall_ratio", "startup_s", "imbalance_s", "fairness"};
  return metrics;
}

BootstrapCi bootstrap_mean_ci(std::vector<double> samples, int resamples,
                              double confidence, std::uint64_t seed) {
  BootstrapCi ci;
  ci.n = samples.size();
  if (samples.empty()) return ci;
  // Sorting first makes the interval a function of the sample *multiset*:
  // merging per-thread batches in any order yields identical endpoints.
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  ci.mean = sum / static_cast<double>(samples.size());
  if (samples.size() < 2 || resamples < 2) {
    ci.lo = ci.mean;
    ci.hi = ci.mean;
    return ci;
  }
  Rng rng(seed);
  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(resamples));
  const auto n = static_cast<std::int64_t>(samples.size());
  for (int r = 0; r < resamples; ++r) {
    double s = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      s += samples[static_cast<std::size_t>(rng.uniform_int(0, n - 1))];
    }
    means.push_back(s / static_cast<double>(n));
  }
  std::sort(means.begin(), means.end());
  const double alpha = (1.0 - confidence) / 2.0;
  const auto last = static_cast<double>(means.size() - 1);
  const auto lo_idx = static_cast<std::size_t>(std::llround(alpha * last));
  const auto hi_idx = static_cast<std::size_t>(std::llround((1.0 - alpha) * last));
  ci.lo = means[lo_idx];
  ci.hi = means[hi_idx];
  return ci;
}

std::vector<LeaderboardSample> collect_samples(const LeaderboardConfig& config) {
  const std::vector<std::string> classes =
      resolve_subset(config.classes, canonical_class_names(), "trace class");
  const std::vector<std::string> players =
      resolve_subset(config.players, canonical_player_labels(), "player");
  // The corpus generators reject a trace_duration_s that is not finite and
  // positive themselves.
  if (config.replications < 1) {
    throw std::invalid_argument("collect_samples: replications must be >= 1");
  }

  std::vector<LeaderboardSample> samples;

  // --- Session axis: SweepRunner over class × seed × player. ---
  std::vector<SweepJob> jobs;
  for (const std::string& class_name : classes) {
    const TraceClass* tc = find_trace_class(class_name);
    assert(tc != nullptr);
    for (int r = 0; r < config.replications; ++r) {
      const std::uint64_t seed = config.base_seed + static_cast<std::uint64_t>(r);
      const BandwidthTrace trace = tc->generate(config.trace_duration_s, seed);
      // The envelope is the corpus' validity gate: a violating trace means
      // the generator contract broke, and scoring players on it would
      // silently poison the leaderboard.
      const std::string violation = check_envelope(trace, tc->envelope);
      if (!violation.empty()) {
        throw std::logic_error(format("trace class %s seed %llu violates envelope: %s",
                                      class_name.c_str(),
                                      static_cast<unsigned long long>(seed),
                                      violation.c_str()));
      }
      const std::string trace_name =
          format("%s#%llu", class_name.c_str(), static_cast<unsigned long long>(seed));
      // One setup per setup-kind per trace would be ideal; per-player setups
      // keep this simple and the build cost is dwarfed by the sessions.
      for (const std::string& player : players) {
        const std::size_t idx = player_index(player);
        SweepJob job;
        job.id = player + "/" + trace_name;
        job.player = player;
        job.trace = class_name;
        job.setup = std::make_shared<const ExperimentSetup>(
            comparison_setup(idx, trace, trace_name));
        job.make_player = comparison_players()[idx].factory;
        jobs.push_back(std::move(job));
      }
    }
  }
  SweepOptions sweep_options;
  sweep_options.threads = config.threads;
  sweep_options.with_qoe = true;
  const SweepResult sweep = SweepRunner(sweep_options).run(jobs);
  for (std::size_t i = 0; i < sweep.jobs.size(); ++i) {
    const SweepJobResult& jr = sweep.jobs[i];
    LeaderboardSample s;
    s.trace_class = jr.trace;
    s.player = jr.player;
    const std::string& id = jr.id;
    s.seed = std::stoull(id.substr(id.rfind('#') + 1));
    s.is_fleet = false;
    s.completed = jr.completed;
    s.qoe = jr.qoe.qoe_score;
    s.video_kbps = jr.qoe.avg_video_kbps;
    s.stall_ratio =
        jr.log.end_time_s > 0.0 ? jr.log.total_stall_s() / jr.log.end_time_s : 0.0;
    s.startup_s = jr.log.startup_delay_s;
    s.imbalance_s = jr.log.mean_buffer_imbalance_s();
    samples.push_back(std::move(s));
  }

  // --- Fleet axis: homogeneous fleets per (class, player, fleet seed) on a
  // --- per-capita-scaled trace; contributes the Jain-fairness metric. ---
  if (config.fleet_clients > 0 && config.fleet_replications > 0) {
    struct FleetJob {
      std::string trace_class;
      std::string player;
      std::uint64_t seed;
    };
    std::vector<FleetJob> fleet_jobs;
    for (const std::string& class_name : classes) {
      for (int f = 0; f < config.fleet_replications; ++f) {
        const std::uint64_t seed = config.base_seed + static_cast<std::uint64_t>(f);
        for (const std::string& player : players) {
          fleet_jobs.push_back({class_name, player, seed});
        }
      }
    }
    std::vector<LeaderboardSample> fleet_samples = fan_out_ordered(
        fleet_jobs.size(), config.threads, [&](std::size_t i) -> LeaderboardSample {
          const FleetJob& job = fleet_jobs[i];
          const TraceClass* tc = find_trace_class(job.trace_class);
          assert(tc != nullptr);
          const BandwidthTrace base = tc->generate(config.trace_duration_s, job.seed);
          // Per-capita scaling: N clients share an N×-provisioned pipe so
          // the per-client operating point matches the session axis.
          const BandwidthTrace scaled =
              scale_trace(base, static_cast<double>(config.fleet_clients));
          const std::size_t idx = player_index(job.player);
          const ExperimentSetup setup =
              comparison_setup(idx, scaled, job.trace_class + "-fleet");
          fleet::FleetConfig fc;
          fc.client_count = config.fleet_clients;
          fc.seed = job.seed;
          fc.engine = fleet::Engine::kEventHeap;
          fc.threads = 1;  // parallelism lives at the job fan-out level
          fc.players.push_back(
              {job.player, comparison_players()[idx].factory, 1.0});
          fc.session = setup.session;
          fc.rtt_s = setup.rtt_s;
          const fleet::FleetResult result =
              fleet::run_fleet(setup.content, setup.view, setup.trace, fc);
          const fleet::FleetMetrics metrics = fleet::compute_fleet_metrics(result);
          LeaderboardSample s;
          s.trace_class = job.trace_class;
          s.player = job.player;
          s.seed = job.seed;
          s.is_fleet = true;
          s.completed = metrics.completed == metrics.clients;
          s.fairness = metrics.jain_fairness_video;
          return s;
        });
    samples.insert(samples.end(), std::make_move_iterator(fleet_samples.begin()),
                   std::make_move_iterator(fleet_samples.end()));
  }
  return samples;
}

Leaderboard build_leaderboard(std::vector<LeaderboardSample> samples,
                              const LeaderboardConfig& config) {
  Leaderboard board;
  board.classes = resolve_subset(config.classes, canonical_class_names(), "trace class");
  board.players = resolve_subset(config.players, canonical_player_labels(), "player");
  board.config = config;

  // Canonical re-sort: any permutation of `samples` aggregates identically.
  std::sort(samples.begin(), samples.end(),
            [](const LeaderboardSample& a, const LeaderboardSample& b) {
              return std::tie(a.trace_class, a.player, a.is_fleet, a.seed) <
                     std::tie(b.trace_class, b.player, b.is_fleet, b.seed);
            });

  for (const std::string& class_name : board.classes) {
    for (const std::string& player : board.players) {
      LeaderboardCell cell;
      cell.trace_class = class_name;
      cell.player = player;
      std::vector<double> qoe, video, stall, startup, imbalance, fairness;
      for (const LeaderboardSample& s : samples) {
        if (s.trace_class != class_name || s.player != player) continue;
        if (s.is_fleet) {
          fairness.push_back(s.fairness);
        } else {
          qoe.push_back(s.qoe);
          video.push_back(s.video_kbps);
          stall.push_back(s.stall_ratio);
          startup.push_back(s.startup_s);
          imbalance.push_back(s.imbalance_s);
        }
      }
      cell.sessions = qoe.size();
      cell.fleets = fairness.size();
      const int rs = config.bootstrap_resamples;
      const double conf = LeaderboardConfig::kConfidence;
      const std::uint64_t bs = LeaderboardConfig::kBootstrapSeed;
      cell.qoe = bootstrap_mean_ci(std::move(qoe), rs, conf, bs);
      cell.video_kbps = bootstrap_mean_ci(std::move(video), rs, conf, bs + 1);
      cell.stall_ratio = bootstrap_mean_ci(std::move(stall), rs, conf, bs + 2);
      cell.startup_s = bootstrap_mean_ci(std::move(startup), rs, conf, bs + 3);
      cell.imbalance_s = bootstrap_mean_ci(std::move(imbalance), rs, conf, bs + 4);
      cell.fairness = bootstrap_mean_ci(std::move(fairness), rs, conf, bs + 5);
      board.cells.push_back(std::move(cell));
    }
  }

  for (const std::string& class_name : board.classes) {
    for (const std::string& metric : leaderboard_metrics()) {
      LeaderboardRanking ranking;
      ranking.trace_class = class_name;
      ranking.metric = metric;
      std::vector<const LeaderboardCell*> row;
      for (const LeaderboardCell& cell : board.cells) {
        if (cell.trace_class == class_name) row.push_back(&cell);
      }
      const bool desc = higher_is_better(metric);
      std::stable_sort(row.begin(), row.end(),
                       [&](const LeaderboardCell* a, const LeaderboardCell* b) {
                         const double ma = cell_metric(*a, metric).mean;
                         const double mb = cell_metric(*b, metric).mean;
                         if (ma != mb) return desc ? ma > mb : ma < mb;
                         return a->player < b->player;  // total order on ties
                       });
      for (const LeaderboardCell* cell : row) ranking.players.push_back(cell->player);
      board.rankings.push_back(std::move(ranking));
    }
  }
  return board;
}

Leaderboard run_leaderboard(const LeaderboardConfig& config) {
  return build_leaderboard(collect_samples(config), config);
}

std::string leaderboard_json(const Leaderboard& board) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"leaderboard\",\n  \"schema_version\": 1,\n";
  out << format("  \"replications\": %d,\n", board.config.replications);
  out << format("  \"trace_duration_s\": %.9g,\n", board.config.trace_duration_s);
  out << format("  \"base_seed\": %llu,\n",
                static_cast<unsigned long long>(board.config.base_seed));
  out << format("  \"bootstrap_resamples\": %d,\n", board.config.bootstrap_resamples);
  out << format("  \"confidence\": %.9g,\n", LeaderboardConfig::kConfidence);
  out << format("  \"fleet_clients\": %d,\n", board.config.fleet_clients);
  out << format("  \"fleet_replications\": %d,\n", board.config.fleet_replications);
  out << "  \"classes\": [";
  for (std::size_t i = 0; i < board.classes.size(); ++i) {
    out << (i ? ", " : "") << "\"" << obs::json_escape(board.classes[i]) << "\"";
  }
  out << "],\n  \"players\": [";
  for (std::size_t i = 0; i < board.players.size(); ++i) {
    out << (i ? ", " : "") << "\"" << obs::json_escape(board.players[i]) << "\"";
  }
  out << "],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < board.cells.size(); ++i) {
    const LeaderboardCell& c = board.cells[i];
    out << format("    {\"class\": \"%s\", \"player\": \"%s\", \"sessions\": %zu, "
                  "\"fleets\": %zu,\n",
                  obs::json_escape(c.trace_class).c_str(),
                  obs::json_escape(c.player).c_str(),
                  c.sessions, c.fleets);
    out << "     \"qoe\": " << ci_json(c.qoe) << ",\n";
    out << "     \"video_kbps\": " << ci_json(c.video_kbps) << ",\n";
    out << "     \"stall_ratio\": " << ci_json(c.stall_ratio) << ",\n";
    out << "     \"startup_s\": " << ci_json(c.startup_s) << ",\n";
    out << "     \"imbalance_s\": " << ci_json(c.imbalance_s) << ",\n";
    out << "     \"fairness\": " << ci_json(c.fairness) << "}"
        << (i + 1 < board.cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"rankings\": [\n";
  for (std::size_t i = 0; i < board.rankings.size(); ++i) {
    const LeaderboardRanking& r = board.rankings[i];
    out << format("    {\"class\": \"%s\", \"metric\": \"%s\", \"players\": [",
                  obs::json_escape(r.trace_class).c_str(),
                  obs::json_escape(r.metric).c_str());
    for (std::size_t j = 0; j < r.players.size(); ++j) {
      out << (j ? ", " : "") << "\"" << obs::json_escape(r.players[j]) << "\"";
    }
    out << "]}" << (i + 1 < board.rankings.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string leaderboard_csv(const Leaderboard& board) {
  std::ostringstream out;
  out << "class,player,sessions,fleets";
  for (const std::string& metric : leaderboard_metrics()) {
    out << "," << metric << "_mean," << metric << "_lo," << metric << "_hi";
  }
  out << "\n";
  for (const LeaderboardCell& c : board.cells) {
    out << c.trace_class << "," << c.player << "," << c.sessions << "," << c.fleets;
    for (const std::string& metric : leaderboard_metrics()) {
      const BootstrapCi& ci = cell_metric(c, metric);
      out << format(",%.9g,%.9g,%.9g", ci.mean, ci.lo, ci.hi);
    }
    out << "\n";
  }
  return out.str();
}

std::string leaderboard_markdown(const Leaderboard& board) {
  std::ostringstream out;
  out << "# Robustness leaderboard\n";
  for (const std::string& class_name : board.classes) {
    const TraceClass* tc = find_trace_class(class_name);
    out << "\n## " << class_name << "\n\n";
    if (tc != nullptr) out << tc->description << "\n\n";
    out << "| player | qoe | video kbps | stall ratio | startup s | imbalance s | "
           "fairness |\n";
    out << "|---|---|---|---|---|---|---|\n";
    for (const LeaderboardCell& c : board.cells) {
      if (c.trace_class != class_name) continue;
      out << "| " << c.player;
      for (const std::string& metric : leaderboard_metrics()) {
        const BootstrapCi& ci = cell_metric(c, metric);
        if (ci.n == 0) {
          out << " | -";
        } else {
          out << format(" | %.3g [%.3g, %.3g]", ci.mean, ci.lo, ci.hi);
        }
      }
      out << " |\n";
    }
    out << "\nRankings (best first):\n\n";
    for (const LeaderboardRanking& r : board.rankings) {
      if (r.trace_class != class_name) continue;
      out << "- **" << r.metric << "**: ";
      for (std::size_t j = 0; j < r.players.size(); ++j) {
        out << (j ? " > " : "") << r.players[j];
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace demuxabr::experiments
