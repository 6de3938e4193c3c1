#include "core/bba_abr.h"

namespace demuxabr {

double BufferBasedJointAbr::rate_map_kbps(double buffer_s) const {
  const double r_min = requirement_kbps(0);
  const double r_max = requirement_kbps(allowed_.size() - 1);
  if (buffer_s <= kReservoirS) return r_min;
  if (buffer_s >= kReservoirS + kCushionS) return r_max;
  const double fraction = (buffer_s - kReservoirS) / kCushionS;
  return r_min + fraction * (r_max - r_min);
}

std::size_t BufferBasedJointAbr::decide(double min_buffer_s) {
  const double mapped = rate_map_kbps(min_buffer_s);
  // BBA hysteresis: up only when the map reaches the NEXT rung; down only
  // when it falls below the CURRENT one.
  if (current_ + 1 < allowed_.size() && mapped >= requirement_kbps(current_ + 1)) {
    // Jump as far as the map allows (covers large buffer swings).
    while (current_ + 1 < allowed_.size() &&
           mapped >= requirement_kbps(current_ + 1)) {
      ++current_;
    }
  } else if (mapped < requirement_kbps(current_)) {
    while (current_ > 0 && mapped < requirement_kbps(current_)) {
      --current_;
    }
  }
  return current_;
}

}  // namespace demuxabr
