// Robustness leaderboard: every player model × trace class × seed
// replication, scored per metric with bootstrap confidence intervals — the
// fleet-scale generalization of the paper's Tables 2/3. "Understanding
// video streaming algorithms in the wild" shows player rankings flip across
// network classes, so the leaderboard never collapses classes into one
// score: it ranks players *per class per metric* and leaves cross-class
// judgment to the reader.
//
// Determinism contract: the leaderboard (and therefore leaderboard_json's
// bytes) depends only on the resolved grid + seeds — never on thread count,
// job completion order, or sample arrival order. collect_samples() tags
// every sample with its grid coordinates and build_leaderboard()
// canonically re-sorts before aggregating; bootstrap_mean_ci() sorts its
// samples before resampling. tests/test_experiments_leaderboard.cpp pins
// byte-identity across threads {1,2,8} and shuffled sample orders.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/sweep.h"
#include "net/trace_corpus.h"

namespace demuxabr::experiments {

/// Percentile-bootstrap confidence interval for a sample mean.
struct BootstrapCi {
  double mean = 0.0;
  double lo = 0.0;  ///< lower CI endpoint (== mean when n < 2)
  double hi = 0.0;
  std::size_t n = 0;  ///< sample count
};

/// Mean ± percentile-bootstrap CI of `samples`. Deterministic: the samples
/// are sorted internally before resampling, so the interval depends only on
/// the multiset of values (merge-order invariance), the resample count, the
/// confidence level and the seed.
BootstrapCi bootstrap_mean_ci(std::vector<double> samples, int resamples,
                              double confidence, std::uint64_t seed);

struct LeaderboardConfig {
  /// Trace classes to run; empty = every trace_class_registry() entry.
  /// Resolved into canonical registry order regardless of listing order.
  std::vector<std::string> classes;
  /// Player labels; empty = every comparison_players() entry. Resolved into
  /// canonical comparison order regardless of listing order.
  std::vector<std::string> players;
  int replications = 8;            ///< session seeds per (class, player)
  std::uint64_t base_seed = 1;     ///< trace seed for replication r = base_seed + r
  double trace_duration_s = 480.0; ///< corpus trace period
  /// Worker threads for sessions + fleets (0 = hardware default, 1 =
  /// serial). Never affects results or output bytes.
  int threads = 1;
  int bootstrap_resamples = 200;
  /// Confidence level of every bootstrap CI; metric m's CI resamples with
  /// seed kBootstrapSeed + m (m in leaderboard_metrics() order).
  static constexpr double kConfidence = 0.95;
  static constexpr std::uint64_t kBootstrapSeed = 7;
  /// Jain-fairness axis: homogeneous fleets of this many clients on a
  /// per-capita-scaled trace. 0 disables the fleet metric entirely.
  int fleet_clients = 8;
  int fleet_replications = 2;  ///< fleet seeds per (class, player)
};

/// One scored run. Session samples carry the five per-session metrics;
/// fleet samples (is_fleet) carry only the fairness metric.
struct LeaderboardSample {
  std::string trace_class;
  std::string player;
  std::uint64_t seed = 0;
  bool is_fleet = false;
  bool completed = false;
  double qoe = 0.0;
  double video_kbps = 0.0;
  double stall_ratio = 0.0;   ///< total stall / session wall time
  double startup_s = 0.0;
  double imbalance_s = 0.0;   ///< mean |audio - video| buffer
  double fairness = 0.0;      ///< Jain fairness of per-client video bitrate
};

/// Aggregated (class, player) cell: per-metric mean ± CI.
struct LeaderboardCell {
  std::string trace_class;
  std::string player;
  std::size_t sessions = 0;  ///< session samples aggregated
  std::size_t fleets = 0;    ///< fleet samples aggregated
  BootstrapCi qoe;
  BootstrapCi video_kbps;
  BootstrapCi stall_ratio;
  BootstrapCi startup_s;
  BootstrapCi imbalance_s;
  BootstrapCi fairness;  ///< n == 0 when fleets are disabled
};

/// Players ordered best-first for one metric within one class (ranked by
/// mean; ties broken by player label so rankings are total orders).
struct LeaderboardRanking {
  std::string trace_class;
  std::string metric;
  std::vector<std::string> players;
};

struct Leaderboard {
  std::vector<std::string> classes;  ///< resolved, canonical order
  std::vector<std::string> players;  ///< resolved, canonical order
  LeaderboardConfig config;          ///< as resolved (threads not serialized)
  std::vector<LeaderboardCell> cells;        ///< class-major, player-minor
  std::vector<LeaderboardRanking> rankings;  ///< class-major, metric-minor
};

/// The metric axis of every ranking table, in emission order. Lower is
/// better for stall_ratio / startup_s / imbalance_s, higher for the rest.
const std::vector<std::string>& leaderboard_metrics();

/// Run the full grid (SweepRunner sessions + homogeneous fleets) and return
/// every raw sample. Order: session samples class-major/player/seed, then
/// fleet samples likewise — but build_leaderboard() re-sorts anyway. Throws
/// std::invalid_argument on an unknown class or player, on replications
/// < 1, and on a trace_duration_s that is not finite and positive.
std::vector<LeaderboardSample> collect_samples(const LeaderboardConfig& config);

/// Aggregate samples into the leaderboard. Canonically sorts first, so any
/// permutation of `samples` yields an identical (byte-identical once
/// serialized) leaderboard.
Leaderboard build_leaderboard(std::vector<LeaderboardSample> samples,
                              const LeaderboardConfig& config);

/// collect_samples + build_leaderboard.
Leaderboard run_leaderboard(const LeaderboardConfig& config);

/// BENCH_leaderboard.json: machine-readable cells + rankings. Contains no
/// wall-clock or host fields — bytes are a pure function of the grid.
std::string leaderboard_json(const Leaderboard& board);

/// Flat CSV: one row per (class, player) with every metric's mean/lo/hi.
std::string leaderboard_csv(const Leaderboard& board);

/// Human-readable markdown: per-class metric table + per-class rankings.
std::string leaderboard_markdown(const Leaderboard& board);

}  // namespace demuxabr::experiments
