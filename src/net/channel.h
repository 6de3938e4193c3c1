// Channel: the contract between a StreamingSession's flows and whatever
// carries them. A flow joins/leaves (processor-sharing population), reads
// the per-flow virtual-time service integral V(t), asks when V reaches a
// target, and files that target in a completion registry the fleet event
// engine can query per carrier instead of per flow.
//
// Two implementations exist:
//  * Link (net/link.h) — one bottleneck pipe; V(t) = ∫ cap/max(1,N). It
//    carries every solo session and is the reference a one-hop path is
//    checked against.
//  * fleet::PathChannel (fleet/topology.h) — an ordered path of one or more
//    links (client → edge → core), the carrier of every fleet session; V(t)
//    integrates the *minimum* of the per-link fair shares, so a flow is
//    throttled by whichever hop is currently the binding constraint.
//
// Everything a session derives from a Channel is a pure function of state
// that only mutates at flow-population changes — the invariant that makes
// the barrier and event-heap fleet engines bit-identical (DESIGN.md §7).
#pragma once

#include <cstdint>

namespace demuxabr {

class Channel {
 public:
  virtual ~Channel() = default;

  /// Register one flow at time `now` (>= every earlier mutation time).
  /// Returns the service integral at `now` — the joining flow's v_start.
  virtual double add_flow(double now) = 0;

  /// Unregister one flow at time `now`. Removing from an idle carrier is a
  /// flow-accounting bug in the caller (double remove).
  virtual void remove_flow(double now) = 0;

  [[nodiscard]] virtual int active_flows() const = 0;

  /// Bumped on every population change; the fleet event engine uses it to
  /// detect that completion predictions keyed on this carrier went stale.
  [[nodiscard]] virtual std::uint64_t epoch() const = 0;

  /// Per-flow cumulative service [kbit] at `t` >= the last mutation time.
  /// Pure: repeated reads at any t give identical values.
  [[nodiscard]] virtual double service_at(double t) const = 0;

  /// Earliest time at which the service integral reaches `v_target`,
  /// assuming the current flow population persists. Returns the last
  /// mutation time when already served; +infinity when never.
  [[nodiscard]] virtual double time_when_service_reaches(double v_target) const = 0;

  // --- Completion registry (virtual-service targets, see net/link.h). ---
  virtual void register_completion(std::uint32_t token, double v_target_kbit) = 0;
  virtual void unregister_completion(std::uint32_t token) = 0;
  [[nodiscard]] virtual bool has_completions() const = 0;
  /// Token of the earliest finisher (smallest target, then smallest token).
  /// Only valid when has_completions().
  [[nodiscard]] virtual std::uint32_t earliest_completion_token() const = 0;
  /// Wall-clock time of the earliest registered completion; +infinity when
  /// none are registered.
  [[nodiscard]] virtual double earliest_completion_time() const = 0;

  /// Raw capacity at time t — for a path, the minimum hop capacity (the
  /// most a single unopposed flow could ever receive).
  [[nodiscard]] virtual double capacity_kbps(double t) const = 0;
};

}  // namespace demuxabr
