// Test oracle for the one-hop Channel (net/topology.h): a single
// processor-sharing link written out plainly, with no topology around it.
// It keeps the per-flow virtual-time service integral
//
//     V(t) = integral over [0, t] of capacity(u) / max(1, N(u)) du   [kbit]
//
// advanced at every flow-population change, plus the link's utilization
// integrals, walking capacity segments so time-varying traces integrate
// exactly. A one-hop path of a Topology must agree with it to the last bit
// on every service value, completion prediction and accounting integral
// (TopologyProperty.OneHopPathIsBitIdenticalToPlainLink and
// TraceCorpusClass.LinkAndOneHopPathChannelAreBitIdentical).
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "net/bandwidth_trace.h"

namespace demuxabr {

class Link {
 public:
  explicit Link(BandwidthTrace trace) : trace_(std::move(trace)) {}

  /// Register one flow at `now`; returns V(now), the flow's v_start.
  double add_flow(double now) {
    advance_to(now);
    ++active_flows_;
    peak_flows_ = std::max(peak_flows_, active_flows_);
    ++epoch_;
    return service_kbit_;
  }

  void remove_flow(double now) {
    advance_to(now);
    assert(active_flows_ > 0 && "oracle schedules never double remove");
    --active_flows_;
    ++epoch_;
  }

  [[nodiscard]] int active_flows() const { return active_flows_; }
  [[nodiscard]] int peak_flows() const { return peak_flows_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// V(t) for t >= the last mutation time, without mutating anything.
  [[nodiscard]] double service_at(double t) const {
    if (t <= clock_s_) return service_kbit_;
    if (active_flows_ <= 0) return service_kbit_;  // idle: nobody is served
    double v = service_kbit_;
    double at = clock_s_;
    const double inv_flows = 1.0 / static_cast<double>(active_flows_);
    while (at < t) {
      const double boundary = trace_.next_change_after(at);
      const double seg_end = std::min(boundary, t);
      const double dt = seg_end - at;
      if (dt <= 0.0) break;
      v += trace_.rate_kbps(at) * dt * inv_flows;
      at = seg_end;
    }
    return v;
  }

  /// Earliest time V reaches `v_target` with the current population; the
  /// last mutation time when already served, +infinity when never.
  [[nodiscard]] double time_when_service_reaches(double v_target) const {
    if (v_target <= service_kbit_) return clock_s_;
    if (active_flows_ <= 0) return std::numeric_limits<double>::infinity();
    double v = service_kbit_;
    double at = clock_s_;
    const double inv_flows = 1.0 / static_cast<double>(active_flows_);
    for (int guard = 0; guard < 1000000; ++guard) {
      const double boundary = trace_.next_change_after(at);
      const double per_flow_kbps = trace_.rate_kbps(at) * inv_flows;
      if (per_flow_kbps > 0.0) {
        const double t_hit = at + (v_target - v) / per_flow_kbps;
        if (t_hit <= boundary) return t_hit;
        if (!std::isfinite(boundary)) return t_hit;
        v += per_flow_kbps * (boundary - at);
      } else if (!std::isfinite(boundary)) {
        return std::numeric_limits<double>::infinity();
      }
      at = boundary;
    }
    return std::numeric_limits<double>::infinity();
  }

  /// Close the books at `t` without changing the population.
  void finalize(double t) { advance_to(t); }

  [[nodiscard]] double busy_s() const { return busy_s_; }
  [[nodiscard]] double flow_seconds() const { return flow_seconds_; }
  [[nodiscard]] double offered_kbit() const { return offered_kbit_; }
  [[nodiscard]] double delivered_kbit() const { return delivered_kbit_; }

 private:
  void advance_to(double t) {
    if (t <= clock_s_) return;
    double at = clock_s_;
    const double inv_flows =
        active_flows_ > 0 ? 1.0 / static_cast<double>(active_flows_) : 1.0;
    while (at < t) {
      const double boundary = trace_.next_change_after(at);
      const double seg_end = std::min(boundary, t);
      const double dt = seg_end - at;
      if (dt <= 0.0) break;
      const double offered = trace_.rate_kbps(at) * dt;
      offered_kbit_ += offered;
      flow_seconds_ += static_cast<double>(active_flows_) * dt;
      if (active_flows_ > 0) {
        busy_s_ += dt;
        delivered_kbit_ += offered;
        service_kbit_ += offered * inv_flows;
      }
      at = seg_end;
    }
    clock_s_ = t;
  }

  BandwidthTrace trace_;
  int active_flows_ = 0;
  int peak_flows_ = 0;
  std::uint64_t epoch_ = 0;
  double clock_s_ = 0.0;
  double service_kbit_ = 0.0;  ///< V(clock_s_)
  double busy_s_ = 0.0;
  double flow_seconds_ = 0.0;
  double offered_kbit_ = 0.0;
  double delivered_kbit_ = 0.0;
};

}  // namespace demuxabr
