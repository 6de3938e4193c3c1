// Leaderboard battery (experiments/leaderboard.h), in three tiers:
//
//  1. bootstrap_mean_ci: exact mean, deterministic endpoints per seed,
//     merge-order invariance (any permutation of the samples → identical
//     interval), coverage sanity on a known distribution, and edge cases
//     (empty / single sample / degenerate resamples).
//  2. build_leaderboard: canonical aggregation — shuffled sample orders and
//     permuted config subsets produce byte-identical JSON; rankings are
//     total orders (each a permutation of the players) sorted the right
//     direction per metric; collect_samples rejects fewer than one
//     replication and a trace duration that is not finite and > 0.
//  3. run_leaderboard end-to-end on a small grid: byte-identical
//     BENCH_leaderboard.json across threads {1, 2, 8}, the fleet axis
//     populates the fairness metric, and the CSV/markdown emitters agree
//     with the JSON on the cell grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/leaderboard.h"
#include "util/rng.h"

namespace demuxabr::experiments {
namespace {

/// Portable deterministic Fisher-Yates (std::shuffle's algorithm is
/// implementation-defined, so tests roll their own).
template <typename T>
void shuffle_with(std::vector<T>& items, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

LeaderboardConfig small_config(int threads) {
  LeaderboardConfig config;
  config.classes = {"lte-handoff", "oscillating"};
  config.players = {"exoplayer", "coordinated"};
  config.replications = 2;
  config.trace_duration_s = 120.0;
  config.threads = threads;
  config.bootstrap_resamples = 50;
  config.fleet_clients = 4;
  config.fleet_replications = 1;
  return config;
}

// --- 1. bootstrap_mean_ci. ---

TEST(BootstrapCiTest, MeanIsExactAndIntervalBracketsIt) {
  const std::vector<double> samples = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  const BootstrapCi ci = bootstrap_mean_ci(samples, 400, 0.95, 1);
  EXPECT_DOUBLE_EQ(ci.mean, 4.5);
  EXPECT_EQ(ci.n, 8u);
  EXPECT_LE(ci.lo, ci.mean);
  EXPECT_GE(ci.hi, ci.mean);
  EXPECT_LT(ci.lo, ci.hi);       // genuinely non-degenerate
  EXPECT_GT(ci.lo, 1.0);         // resampled means concentrate near 4.5
  EXPECT_LT(ci.hi, 8.0);
}

TEST(BootstrapCiTest, FixedSeedReproducesEndpointsExactly) {
  const std::vector<double> samples = {3.1, 4.1, 5.9, 2.6, 5.3, 5.8, 9.7, 9.3};
  const BootstrapCi a = bootstrap_mean_ci(samples, 300, 0.95, 42);
  const BootstrapCi b = bootstrap_mean_ci(samples, 300, 0.95, 42);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
  const BootstrapCi c = bootstrap_mean_ci(samples, 300, 0.95, 43);
  EXPECT_TRUE(c.lo != a.lo || c.hi != a.hi);  // the seed genuinely matters
}

TEST(BootstrapCiTest, MergeOrderInvariance) {
  // Per-thread batches arrive in arbitrary order; the interval must be a
  // function of the sample multiset alone.
  std::vector<double> samples;
  Rng rng(7);
  for (int i = 0; i < 40; ++i) samples.push_back(rng.normal(10.0, 2.0));
  const BootstrapCi base = bootstrap_mean_ci(samples, 200, 0.9, 5);
  for (std::uint64_t perm = 1; perm <= 6; ++perm) {
    std::vector<double> permuted = samples;
    shuffle_with(permuted, perm);
    const BootstrapCi ci = bootstrap_mean_ci(permuted, 200, 0.9, 5);
    EXPECT_EQ(ci.mean, base.mean) << "perm " << perm;
    EXPECT_EQ(ci.lo, base.lo) << "perm " << perm;
    EXPECT_EQ(ci.hi, base.hi) << "perm " << perm;
  }
}

TEST(BootstrapCiTest, CoverageSanityOnKnownDistribution) {
  // 95% CI over n=30 normal(5, 1) samples should contain the true mean in
  // roughly 95% of trials; with 200 deterministic trials, anything in
  // [85%, 100%] passes (binomial 3-sigma is ~±4.6%).
  Rng rng(20260808);
  int covered = 0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    std::vector<double> samples;
    for (int i = 0; i < 30; ++i) samples.push_back(rng.normal(5.0, 1.0));
    const BootstrapCi ci =
        bootstrap_mean_ci(samples, 200, 0.95, static_cast<std::uint64_t>(trial));
    if (ci.lo <= 5.0 && 5.0 <= ci.hi) ++covered;
  }
  EXPECT_GE(covered, static_cast<int>(0.85 * trials));
}

TEST(BootstrapCiTest, EdgeCases) {
  const BootstrapCi empty = bootstrap_mean_ci({}, 100, 0.95, 1);
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.mean, 0.0);
  const BootstrapCi single = bootstrap_mean_ci({7.5}, 100, 0.95, 1);
  EXPECT_EQ(single.n, 1u);
  EXPECT_DOUBLE_EQ(single.mean, 7.5);
  EXPECT_DOUBLE_EQ(single.lo, 7.5);  // no spread to estimate
  EXPECT_DOUBLE_EQ(single.hi, 7.5);
  const BootstrapCi no_resamples = bootstrap_mean_ci({1.0, 3.0}, 1, 0.95, 1);
  EXPECT_DOUBLE_EQ(no_resamples.lo, 2.0);
  EXPECT_DOUBLE_EQ(no_resamples.hi, 2.0);
}

// --- 2. build_leaderboard canonicalization. ---

std::vector<LeaderboardSample> synthetic_samples() {
  std::vector<LeaderboardSample> samples;
  const std::vector<std::string> classes = {"lte-handoff", "oscillating"};
  const std::vector<std::string> players = {"exoplayer", "coordinated"};
  Rng rng(3);
  for (const std::string& c : classes) {
    for (const std::string& p : players) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        LeaderboardSample s;
        s.trace_class = c;
        s.player = p;
        s.seed = seed;
        s.completed = true;
        s.qoe = rng.uniform(0.0, 5.0);
        s.video_kbps = rng.uniform(500.0, 3000.0);
        s.stall_ratio = rng.uniform(0.0, 0.2);
        s.startup_s = rng.uniform(0.5, 3.0);
        s.imbalance_s = rng.uniform(0.0, 4.0);
        samples.push_back(s);
      }
      LeaderboardSample fleet;
      fleet.trace_class = c;
      fleet.player = p;
      fleet.seed = 1;
      fleet.is_fleet = true;
      fleet.fairness = rng.uniform(0.7, 1.0);
      samples.push_back(fleet);
    }
  }
  return samples;
}

TEST(BuildLeaderboard, ShuffledSamplesYieldByteIdenticalJson) {
  LeaderboardConfig config = small_config(1);
  const std::vector<LeaderboardSample> samples = synthetic_samples();
  const std::string base = leaderboard_json(build_leaderboard(samples, config));
  for (std::uint64_t perm = 1; perm <= 5; ++perm) {
    std::vector<LeaderboardSample> permuted = samples;
    shuffle_with(permuted, perm * 31);
    EXPECT_EQ(leaderboard_json(build_leaderboard(permuted, config)), base)
        << "perm " << perm;
  }
}

TEST(BuildLeaderboard, PermutedConfigSubsetsResolveCanonically) {
  const std::vector<LeaderboardSample> samples = synthetic_samples();
  LeaderboardConfig a = small_config(1);
  LeaderboardConfig b = small_config(1);
  std::reverse(b.classes.begin(), b.classes.end());
  std::reverse(b.players.begin(), b.players.end());
  EXPECT_EQ(leaderboard_json(build_leaderboard(samples, a)),
            leaderboard_json(build_leaderboard(samples, b)));
}

TEST(BuildLeaderboard, RankingsArePermutationsSortedByMetricDirection) {
  const LeaderboardConfig config = small_config(1);
  const Leaderboard board = build_leaderboard(synthetic_samples(), config);
  ASSERT_EQ(board.rankings.size(),
            board.classes.size() * leaderboard_metrics().size());
  for (const LeaderboardRanking& r : board.rankings) {
    const std::set<std::string> unique(r.players.begin(), r.players.end());
    EXPECT_EQ(unique.size(), board.players.size()) << r.trace_class << "/" << r.metric;
    // Adjacent pairs obey the metric direction on cell means.
    for (std::size_t j = 0; j + 1 < r.players.size(); ++j) {
      double mj = 0.0;
      double mk = 0.0;
      for (const LeaderboardCell& cell : board.cells) {
        if (cell.trace_class != r.trace_class) continue;
        const BootstrapCi* ci = nullptr;
        if (r.metric == "qoe") ci = &cell.qoe;
        else if (r.metric == "video_kbps") ci = &cell.video_kbps;
        else if (r.metric == "stall_ratio") ci = &cell.stall_ratio;
        else if (r.metric == "startup_s") ci = &cell.startup_s;
        else if (r.metric == "imbalance_s") ci = &cell.imbalance_s;
        else ci = &cell.fairness;
        if (cell.player == r.players[j]) mj = ci->mean;
        if (cell.player == r.players[j + 1]) mk = ci->mean;
      }
      const bool desc = r.metric == "qoe" || r.metric == "video_kbps" ||
                        r.metric == "fairness";
      if (desc) {
        EXPECT_GE(mj, mk) << r.trace_class << "/" << r.metric << " rank " << j;
      } else {
        EXPECT_LE(mj, mk) << r.trace_class << "/" << r.metric << " rank " << j;
      }
    }
  }
}

TEST(BuildLeaderboard, RejectsUnknownNames) {
  LeaderboardConfig config = small_config(1);
  config.classes = {"lte-handoff", "no-such-class"};
  EXPECT_THROW(build_leaderboard({}, config), std::invalid_argument);
  config = small_config(1);
  config.players = {"no-such-player"};
  EXPECT_THROW(build_leaderboard({}, config), std::invalid_argument);
}

TEST(CollectSamples, RejectsReplicationsBelowOneAndBadDurations) {
  for (const int replications : {0, -1}) {
    LeaderboardConfig config = small_config(1);
    config.replications = replications;
    EXPECT_THROW(collect_samples(config), std::invalid_argument)
        << "replications=" << replications;
  }
  for (const double duration : {0.0, std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}) {
    LeaderboardConfig config = small_config(1);
    config.trace_duration_s = duration;
    EXPECT_THROW(collect_samples(config), std::invalid_argument)
        << "trace_duration_s=" << duration;
  }
}

// --- 3. End-to-end determinism + emitters. ---

TEST(LeaderboardEndToEnd, ByteIdenticalAcrossThreadCounts) {
  const std::string serial = leaderboard_json(run_leaderboard(small_config(1)));
  for (const int threads : {2, 8}) {
    EXPECT_EQ(leaderboard_json(run_leaderboard(small_config(threads))), serial)
        << "threads=" << threads;
  }
}

TEST(LeaderboardEndToEnd, GridIsFullyPopulated) {
  const Leaderboard board = run_leaderboard(small_config(1));
  ASSERT_EQ(board.cells.size(), board.classes.size() * board.players.size());
  for (const LeaderboardCell& cell : board.cells) {
    EXPECT_EQ(cell.sessions, 2u) << cell.trace_class << "/" << cell.player;
    EXPECT_EQ(cell.fleets, 1u) << cell.trace_class << "/" << cell.player;
    EXPECT_GT(cell.video_kbps.mean, 0.0);
    EXPECT_GE(cell.qoe.lo, std::min(cell.qoe.mean, cell.qoe.lo));
    EXPECT_LE(cell.qoe.lo, cell.qoe.hi);
    // The fleet axis populated Jain fairness: a real number in (0, 1].
    EXPECT_GT(cell.fairness.mean, 0.0);
    EXPECT_LE(cell.fairness.mean, 1.0 + 1e-12);
  }
}

TEST(LeaderboardEndToEnd, SamplesCarrySessionAndFleetAxes) {
  const LeaderboardConfig config = small_config(1);
  const std::vector<LeaderboardSample> samples = collect_samples(config);
  // 2 classes × 2 players × 2 session reps + 2 classes × 2 players × 1 fleet.
  std::size_t sessions = 0;
  std::size_t fleets = 0;
  for (const LeaderboardSample& s : samples) {
    (s.is_fleet ? fleets : sessions)++;
    EXPECT_TRUE(s.trace_class == "lte-handoff" || s.trace_class == "oscillating");
    EXPECT_TRUE(s.player == "exoplayer" || s.player == "coordinated");
  }
  EXPECT_EQ(sessions, 8u);
  EXPECT_EQ(fleets, 4u);
}

TEST(LeaderboardEndToEnd, CsvAndMarkdownMatchTheGrid) {
  const Leaderboard board = run_leaderboard(small_config(1));
  const std::string csv = leaderboard_csv(board);
  std::size_t csv_rows = 0;
  for (char c : csv) {
    if (c == '\n') ++csv_rows;
  }
  EXPECT_EQ(csv_rows, board.cells.size() + 1);  // header + one row per cell
  EXPECT_NE(csv.find("class,player,sessions,fleets"), std::string::npos);
  EXPECT_NE(csv.find("qoe_mean,qoe_lo,qoe_hi"), std::string::npos);

  const std::string md = leaderboard_markdown(board);
  for (const std::string& class_name : board.classes) {
    EXPECT_NE(md.find("## " + class_name), std::string::npos);
  }
  for (const std::string& player : board.players) {
    EXPECT_NE(md.find(player), std::string::npos);
  }
  EXPECT_NE(md.find("Rankings (best first):"), std::string::npos);
}

}  // namespace
}  // namespace demuxabr::experiments
