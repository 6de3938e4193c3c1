#include "fleet/event_heap.h"

#include <cmath>

namespace demuxabr::fleet {

EventHeap::EventHeap(std::uint32_t session_count, std::uint32_t link_count)
    : link_base_(session_count) {
  heap_.reserve(session_count + link_count);
}

void EventHeap::sync_link(std::uint32_t link_index, const Channel& link) {
  ++stats_.sync_checks;
  const std::uint32_t id = link_base_ + link_index;
  const double t = link.earliest_completion_time();
  if (std::isfinite(t)) {
    heap_.update(id, t);
  } else {
    heap_.erase(id);
  }
}

}  // namespace demuxabr::fleet
