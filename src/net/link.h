// Bottleneck link with processor-sharing among concurrent flows, plus the
// Network abstraction that lets audio and video ride either a shared
// bottleneck (the common case in §3) or two independent paths (the
// different-servers scenario §1/§4.1 calls out).
//
// Service is accounted in *virtual time* (fair-queuing style): the link
// maintains V(t), the cumulative per-flow service integral
//
//     V(t) = integral over [0, t] of capacity(u) / max(1, N(u)) du   [kbit]
//
// advanced lazily at every flow-population change. A flow that joined when
// the integral read v_start has received exactly (V(t) - v_start) kbit by
// time t, however many other flows came and went in between — so a session
// can account its bytes at *its own* events as an integral difference
// instead of integrating every interval. Because V only mutates at
// population changes, every derived quantity — delivered bytes, predicted
// completion times, utilization integrals — is a pure function of that
// state. fleet::PathChannel keeps the same integral per topology path,
// which is what lets a whole fleet skip global barriers and stay
// bit-identical across its engines.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>

#include "net/bandwidth_trace.h"
#include "net/channel.h"
#include "util/indexed_min_heap.h"

namespace demuxabr {

/// A link carrying 0..N concurrent flows. Capacity follows a BandwidthTrace;
/// active flows share it equally (TCP-fair approximation). The simulation
/// engine registers/unregisters flows (with the current time, so the service
/// integral can advance) and reads service integrals and completion
/// predictions. This is the Channel of every solo session; fleets ride
/// fleet::PathChannel instead, whose one-hop case is expression-identical
/// to this class (tests/test_fleet_topology.cpp holds it to that).
class Link final : public Channel {
 public:
  explicit Link(BandwidthTrace trace) : trace_(std::move(trace)) {}

  /// Register one flow at time `now` (>= every earlier mutation time).
  /// Returns the service integral at `now` — the joining flow's v_start.
  double add_flow(double now) override;

  /// Unregister one flow at time `now`. Removing from an idle link is a
  /// flow-accounting bug in the caller (double remove) that would corrupt
  /// processor sharing across every other flow on the link: asserts in
  /// debug builds, logs an error, counts it in double_removes() and clamps
  /// at zero in release.
  void remove_flow(double now) override;
  /// Double removes clamped so far; anything but 0 is a caller bug.
  [[nodiscard]] std::uint64_t double_removes() const { return double_removes_; }

  [[nodiscard]] int active_flows() const override { return active_flows_; }
  /// Highest concurrent flow count ever observed.
  [[nodiscard]] int peak_flows() const { return peak_flows_; }
  /// Bumped on every population change, so a caller can detect that
  /// completion predictions keyed on this link went stale.
  [[nodiscard]] std::uint64_t epoch() const override { return epoch_; }

  /// Per-flow cumulative service [kbit] at `t` >= the last mutation time.
  /// Pure: walks capacity segments from the stored integral without
  /// mutating it, so repeated reads at any t give identical values.
  [[nodiscard]] double service_at(double t) const override;

  /// Earliest time at which the service integral reaches `v_target`,
  /// assuming the current flow population persists (any population change
  /// re-predicts). Returns the last mutation time when the target has
  /// already been served; +infinity when capacity never delivers it.
  [[nodiscard]] double time_when_service_reaches(double v_target) const override;

  // --- Completion registry (virtual-service targets). ---
  //
  // Targets are *invariant* under population and capacity changes — only
  // their wall-clock translation moves. The registry is what lets a fleet
  // engine ask one O(1) question per link ("who finishes first, and when?")
  // instead of re-deriving a prediction per flow per event.

  /// Register/refresh the completion target of flow `token` (caller-chosen
  /// dense id, unique per in-flight flow on this link).
  void register_completion(std::uint32_t token, double v_target_kbit) override {
    completions_.update(token, v_target_kbit);
  }
  void unregister_completion(std::uint32_t token) override { completions_.erase(token); }
  [[nodiscard]] bool has_completions() const override { return !completions_.empty(); }
  /// Token of the earliest finisher (smallest target, then smallest token).
  [[nodiscard]] std::uint32_t earliest_completion_token() const override {
    return completions_.top().id;
  }
  /// Wall-clock time of the earliest registered completion; +infinity when
  /// none are registered.
  [[nodiscard]] double earliest_completion_time() const override {
    if (completions_.empty()) return std::numeric_limits<double>::infinity();
    return time_when_service_reaches(completions_.top().key);
  }

  /// Total capacity at time t.
  [[nodiscard]] double capacity_kbps(double t) const override {
    return trace_.rate_kbps(t);
  }

  /// Rate each active flow receives at time t (capacity when idle, so a
  /// flow about to start can be quoted).
  [[nodiscard]] double per_flow_kbps(double t) const {
    const int n = active_flows_ > 0 ? active_flows_ : 1;
    return trace_.rate_kbps(t) / static_cast<double>(n);
  }

  /// Next time > t at which capacity changes.
  [[nodiscard]] double next_change_after(double t) const {
    return trace_.next_change_after(t);
  }

  // --- Utilization accounting (integrated alongside the service curve). ---
  //
  // Advanced at the same lazy points as V(t), so busy time, flow-seconds
  // and offered/delivered capacity integrals are partitioned identically in
  // every engine that produces the same flow schedule.

  /// Advance the accounting (and service) integrals to `t` without changing
  /// the population — call once at the end of a run to close the books.
  void finalize(double t) { advance_to(t); }

  [[nodiscard]] double observed_s() const { return clock_s_; }
  [[nodiscard]] double busy_s() const { return busy_s_; }
  [[nodiscard]] double flow_seconds() const { return flow_seconds_; }
  [[nodiscard]] double offered_kbit() const { return offered_kbit_; }
  [[nodiscard]] double delivered_kbit() const { return delivered_kbit_; }

  [[nodiscard]] const BandwidthTrace& trace() const { return trace_; }

 private:
  /// Advance the service + accounting integrals from clock_s_ to t with the
  /// current population, walking capacity segments so time-varying traces
  /// integrate exactly.
  void advance_to(double t);

  BandwidthTrace trace_;
  int active_flows_ = 0;
  int peak_flows_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t double_removes_ = 0;

  double clock_s_ = 0.0;    ///< time up to which all integrals are advanced
  double service_kbit_ = 0.0;  ///< V(clock_s_): per-flow service integral

  double busy_s_ = 0.0;
  double flow_seconds_ = 0.0;
  double offered_kbit_ = 0.0;
  double delivered_kbit_ = 0.0;

  /// v_target [kbit] per in-flight flow token.
  IndexedMinHeap completions_;
};

/// The network between client and server(s): one carrier per media type.
/// `shared` points both media types at the same Link object so concurrent
/// audio+video downloads contend (the root of Shaka's mis-estimation, §3.3).
/// A fleet instead wires each member at fleet::PathChannels of its
/// topology, so every client's flows contend on the same links.
class FlowRouter;

struct Network {
  std::shared_ptr<Channel> video_link;
  std::shared_ptr<Channel> audio_link;
  /// Per-request startup latency (connection + request RTT).
  double rtt_s = 0.05;
  /// Optional cache-aware request router (sim/flow_router.h). Consulted at
  /// flow registration; may redirect a request onto a shorter carrier (an
  /// edge-cache hit path). Non-owning — the fleet scheduler outlives every
  /// session it wires. Null = every flow rides its default link.
  FlowRouter* router = nullptr;

  static Network shared(BandwidthTrace trace, double rtt_s = 0.05) {
    Network net;
    net.video_link = std::make_shared<Link>(std::move(trace));
    net.audio_link = net.video_link;
    net.rtt_s = rtt_s;
    return net;
  }

  static Network split(BandwidthTrace video_trace, BandwidthTrace audio_trace,
                       double rtt_s = 0.05) {
    Network net;
    net.video_link = std::make_shared<Link>(std::move(video_trace));
    net.audio_link = std::make_shared<Link>(std::move(audio_trace));
    net.rtt_s = rtt_s;
    return net;
  }

  /// Wire arbitrary carriers (e.g. topology paths). `audio` may equal
  /// `video` for the shared case.
  static Network over(std::shared_ptr<Channel> video, std::shared_ptr<Channel> audio,
                      double rtt_s = 0.05) {
    Network net;
    net.video_link = std::move(video);
    net.audio_link = std::move(audio);
    net.rtt_s = rtt_s;
    return net;
  }

  [[nodiscard]] bool is_shared() const { return video_link == audio_link; }
  [[nodiscard]] Channel& link_for(bool is_video) const {
    return is_video ? *video_link : *audio_link;
  }
};

}  // namespace demuxabr
