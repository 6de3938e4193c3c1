// EventHeap: the fleet engine's event queue. An indexed min-heap over two
// kinds of entities keyed by absolute event time:
//
//   * sessions — keyed on min(next_local_event_time, planned leave time);
//     refreshed in the registration phase after the session is processed.
//     A session with nothing in flight first runs its sampling ticks in
//     place (StreamingSession::run_idle_ticks), so idle ticks never enter
//     the heap: a session's key is its next event that is not an idle tick.
//     A session whose in-flight ticks feed its player nothing
//     (StreamingSession::ticks_can_run_late) is keyed on its next non-tick
//     event instead, and runs the skipped ticks at its next visit;
//   * shared links — every carrier with a completion registry: one entity
//     per topology *channel* (spec paths plus the derived cache-hit prefix
//     channels of cache-aware fleets, Topology::channel_count). Keyed on
//     the carrier's earliest registered flow completion, re-keyed by
//     sync_link for exactly the channels Topology::dirty_channels() lists:
//     those whose epoch moved since the engine's last sync. A completion
//     target is a virtual-service integral value, invariant under
//     population and capacity changes, so one O(log F) registry lookup per
//     link replaces re-keying every riding session when a flow joins or
//     leaves — the difference between O(log N) and O(N) per event.
//
// Ties pop by entity id; link ids sit above all session ids, so a session's
// own events at time t fire before completions surface at t — mirroring the
// barrier engine's phase order.
#pragma once

#include <cstdint>

#include "net/topology.h"
#include "util/indexed_min_heap.h"

namespace demuxabr::fleet {

class EventHeap {
 public:
  /// Entity id layout: sessions occupy [0, session_count), link `i` maps to
  /// session_count + i.
  EventHeap(std::uint32_t session_count, std::uint32_t link_count);

  struct Event {
    bool is_link = false;
    std::uint32_t index = 0;  ///< session id, or link index
    double t = 0.0;
  };

  /// Insert or re-key a session's next event time.
  void schedule_session(std::uint32_t id, double t) { heap_.update(id, t); }
  /// Drop a retired session.
  void erase_session(std::uint32_t id) { heap_.erase(id); }

  /// Re-key link `link_index` on its earliest registered completion. A
  /// link with no registered completions leaves the heap.
  void sync_link(std::uint32_t link_index, const Channel& link);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] Event top() const {
    const IndexedMinHeap::Entry entry = heap_.top();
    Event event;
    event.is_link = entry.id >= link_base_;
    event.index = event.is_link ? entry.id - link_base_ : entry.id;
    event.t = entry.key;
    return event;
  }
  void pop() {
    heap_.pop();
    ++stats_.pops;
  }

  /// Structural work counters (plain integer increments, always collected):
  /// pops and sync_link calls.
  struct Stats {
    std::uint64_t pops = 0;
    std::uint64_t sync_checks = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  IndexedMinHeap heap_;
  Stats stats_;
  std::uint32_t link_base_;
};

}  // namespace demuxabr::fleet
