// FlowRouter: the session's per-request routing hook. A session normally
// registers every flow on its Network's default carrier (the client's full
// path to the origin); a router may redirect individual requests onto a
// different Channel — the cache-aware fleet (fleet/cdn_fleet.h) serves edge
// cache hits over the short client→edge hop prefix while misses ride the
// full edge→origin path.
//
// Determinism contract (why both hooks fire inside begin_step): in both
// fleet engines, at any timestamp t, all chunk completions at t fire before
// all flow registrations at t, and begin_step sweeps sessions in ascending
// client id. Sessions therefore defer delivered() notifications from
// complete_flow to their next begin_step, so every router mutation — the
// lookup/touch in admit() and the cache fill in delivered() — happens in
// client-id order per timestamp, identically in the barrier and event-heap
// engines and at any shard/thread count.
#pragma once

#include <cstdint>

#include "net/topology.h"
#include "sim/player.h"

namespace demuxabr {

/// One routing decision. A null channel means "use the default carrier".
/// The ticket is opaque router state echoed back through delivered();
/// ticket 0 means the completion needs no notification.
struct FlowRoute {
  Channel* channel = nullptr;
  std::uint64_t ticket = 0;
};

class FlowRouter {
 public:
  virtual ~FlowRouter() = default;

  /// Called when a flow is about to register on a link (its RTT elapsed,
  /// inside begin_step). `origin_route` is the session's default carrier
  /// for this request's media type.
  virtual FlowRoute admit(const DownloadRequest& request, Channel& origin_route,
                          double now) = 0;

  /// Called — deferred to the completing session's next begin_step — once
  /// the flow admitted with `ticket` fully downloaded. Aborted flows are
  /// never delivered.
  virtual void delivered(const DownloadRequest& request, std::uint64_t ticket,
                         double now) = 0;
};

}  // namespace demuxabr
