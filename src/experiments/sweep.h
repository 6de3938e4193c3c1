// SweepRunner: fan independent experiment sessions out across worker threads
// (fan_out_ordered, util/parallel.h).
//
// A sweep is a list of jobs, each pairing an (immutable, shareable)
// ExperimentSetup with a factory that builds a fresh PlayerAdapter per run.
// Every session is an isolated deterministic simulation — the setup is read
// only, the Network (and the flow counters of its topology) is rebuilt per
// run by experiments::run(), and all per-session state lives in the player
// and session objects the job creates — so results are byte-identical no
// matter how many threads execute the sweep. Results always come back in job
// order; `threads = 1` starts no thread and is bit-identical to the
// historical serial loop.
//
// Determinism contract (DESIGN.md "Parallel sweeps"): equal job lists give
// equal per-job SessionLogs for every thread count, verified by comparing
// log_fingerprint() strings in tests/test_sweep.cpp.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "experiments/scenarios.h"
#include "experiments/tables.h"
#include "sim/metrics.h"
#include "sim/player.h"

namespace demuxabr::experiments {

struct SweepJob {
  std::string id;      ///< unique label, e.g. "coordinated/varying-600k"
  std::string player;  ///< player label (comparison-table column)
  std::string trace;   ///< trace label (comparison-table column)
  std::shared_ptr<const ExperimentSetup> setup;
  PlayerFactory make_player;
};

struct SweepJobResult {
  std::string id;
  std::string player;  ///< from the job; log.player_name holds the model name
  std::string trace;
  SessionLog log;
  QoeReport qoe;  ///< populated when SweepOptions::with_qoe
  bool completed = false;
  double wall_s = 0.0;  ///< wall-clock cost of this job alone
};

struct SweepSummary {
  int threads = 1;
  std::size_t job_count = 0;
  double wall_s = 0.0;       ///< end-to-end sweep wall time
  double simulated_s = 0.0;  ///< sum of per-session simulated end times
  double sessions_per_s = 0.0;
  double simulated_per_wall = 0.0;  ///< aggregate sim-seconds per wall-second
};

struct SweepResult {
  std::vector<SweepJobResult> jobs;  ///< deterministic: submission order
  SweepSummary summary;
};

struct SweepOptions {
  /// 0 = hardware_threads(); 1 = serial on the calling thread (no worker
  /// thread), bit-identical to the historical loop.
  int threads = 0;
  /// Compute the QoeReport per job (uses setup.content ladder + allowed set).
  bool with_qoe = true;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Run every job and return results in job order.
  [[nodiscard]] SweepResult run(const std::vector<SweepJob>& jobs) const;

  /// The thread count run() will actually use.
  [[nodiscard]] int resolved_threads() const;

 private:
  SweepOptions options_;
};

// --- The §4 comparison matrix (shared by bench_best_practices,
// --- examples/player_comparison and perfbench's corpus-sweep). ---

struct ComparisonPlayer {
  std::string label;
  PlayerFactory factory;
};

/// Every player model of the §4 evaluation, in table order: exo-legacy,
/// exoplayer, shaka, dashjs, muxed, coordinated, coordinated-mpc,
/// coordinated-bba.
const std::vector<ComparisonPlayer>& comparison_players();

/// The setup a given comparison player runs against on a trace (plain DASH
/// for commercial demuxed models, HLS H_all for Shaka, best-practice DASH
/// for the coordinated family).
ExperimentSetup comparison_setup(std::size_t player_index, const BandwidthTrace& trace,
                                 const std::string& trace_name);

/// Full §4 grid: comparison_players() x comparison_traces(). Setups are
/// built once per (setup-kind, trace) and shared across jobs — no throwaway
/// Content copies inside the sweep loop.
std::vector<SweepJob> comparison_matrix();

/// Rows for render_comparison_table(), in sweep order.
std::vector<ComparisonRow> comparison_rows(const SweepResult& result);

// --- Determinism helper. ---

/// Byte-exact serialization of everything a SessionLog records (downloads,
/// abandonments, stalls, seeks, selections, every time series, metadata).
/// Two logs are byte-identical iff their fingerprints compare equal.
std::string log_fingerprint(const SessionLog& log);

}  // namespace demuxabr::experiments
