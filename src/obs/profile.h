// Engine self-profiling (DESIGN.md §8): per-phase wall-clock accounting for
// the event-heap fleet engine, so a steps/s regression localizes to a phase
// (drain / register / admit) instead of "the engine got slower".
//
// Wall-clock reads only happen when profiling was requested
// (FleetConfig::profile); the heap's structural counters (pops, link
// syncs) are plain integer increments and are always collected.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace demuxabr::obs {

struct PhaseStats {
  double wall_s = 0.0;
  std::uint64_t calls = 0;
};

/// Per-phase accounting of one fleet-engine run. Phases follow the
/// event-heap engine's loop (fleet/scheduler.cpp run_event_heap):
///  * drain    — pop and process every event due at the current timestamp;
///  * register — the registration phase (begin_step + re-key) at that time;
///  * admit    — admission scans for clients arriving at or before it.
struct EngineProfile {
  /// Wall-clock phase timings were collected (FleetConfig::profile).
  bool enabled = false;

  PhaseStats drain;
  PhaseStats register_phase;
  PhaseStats admit;

  /// Heap structure counters (always collected, engine=event_heap only).
  std::uint64_t heap_pops = 0;
  /// sync_link calls: one per channel whose epoch moved, each an O(log F)
  /// registry lookup + O(log N) re-key.
  std::uint64_t link_sync_checks = 0;
  /// Equal to link_sync_checks: every sync re-keys. Kept because
  /// perfbench/runner.cpp derives fleet.engine.link_sync_refresh_ratio
  /// from it.
  std::uint64_t link_sync_refreshes = 0;

  [[nodiscard]] double total_wall_s() const {
    return drain.wall_s + register_phase.wall_s + admit.wall_s;
  }

  /// JSON object (schema documented in EXPERIMENTS.md "Engine profile").
  [[nodiscard]] std::string to_json() const;
  /// Human-readable table (bench_fleet --profile).
  [[nodiscard]] std::string to_table() const;
};

/// RAII phase timer: accumulates into `stats` when non-null, otherwise free
/// (no clock reads on the unprofiled path).
class PhaseTimer {
 public:
  explicit PhaseTimer(PhaseStats* stats) : stats_(stats) {
    if (stats_ != nullptr) t0_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (stats_ != nullptr) {
      stats_->wall_s +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
              .count();
      ++stats_->calls;
    }
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  PhaseStats* stats_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace demuxabr::obs
