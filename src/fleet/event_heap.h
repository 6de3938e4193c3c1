// EventHeap: the fleet engine's event queue. An indexed min-heap over two
// kinds of entities keyed by absolute event time:
//
//   * sessions — keyed on min(next_local_event_time, planned leave time);
//     refreshed whenever the session is processed;
//   * shared links — every carrier with a completion registry: one entity
//     per topology *channel* (spec paths plus the derived cache-hit prefix
//     channels of cache-aware fleets, Topology::channel_count). Keyed on
//     the carrier's earliest registered flow completion, refreshed
//     *lazily*: the key is recomputed only when the link's flow-count epoch
//     moved since the last sync. A completion
//     target is a virtual-service integral value, invariant under
//     population and capacity changes, so one O(log F) registry lookup per
//     link replaces re-keying every riding session when a flow joins or
//     leaves — the difference between O(log N) and O(N) per event.
//
// Ties pop by entity id; link ids sit above all session ids, so a session's
// own events at time t fire before completions surface at t — mirroring the
// barrier engine's phase order.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "net/topology.h"
#include "util/arena.h"
#include "util/indexed_min_heap.h"

namespace demuxabr::fleet {

class EventHeap {
 public:
  /// Entity id layout: sessions occupy [0, session_count), link `i` maps to
  /// session_count + i. `arena` (optional, must outlive the heap) backs the
  /// heap's storage — the scheduler passes its per-shard arena so engine
  /// bookkeeping never touches the global heap after construction.
  EventHeap(std::uint32_t session_count, std::uint32_t link_count,
            MonotonicArena* arena = nullptr);

  struct Event {
    bool is_link = false;
    std::uint32_t index = 0;  ///< session id, or link index
    double t = 0.0;
  };

  /// Insert or re-key a session's next event time.
  void schedule_session(std::uint32_t id, double t) { heap_.update(id, t); }
  /// Drop a retired session.
  void erase_session(std::uint32_t id) { heap_.erase(id); }

  /// Refresh link `link_index`'s key iff its epoch moved since the last
  /// sync (or unconditionally with `force`). A link with no registered
  /// completions leaves the heap.
  void sync_link(std::uint32_t link_index, const Channel& link, bool force = false);

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
  /// pops, plus sync_link calls vs. the subset that actually re-keyed — the
  /// epoch-lazy optimisation's hit rate.
  struct Stats {
    std::uint64_t pops = 0;
    std::uint64_t sync_checks = 0;
    std::uint64_t sync_refreshes = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  BasicIndexedMinHeap<ArenaAllocator<HeapEntry>> heap_;
  Stats stats_;
  std::uint32_t link_base_;
  /// Last-synced Channel::epoch() per link entity; starts at a sentinel no
  /// real epoch takes so the first sync always refreshes.
  std::vector<std::uint64_t, ArenaAllocator<std::uint64_t>> link_epochs_;
};

}  // namespace demuxabr::fleet
