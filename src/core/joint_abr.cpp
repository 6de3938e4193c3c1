#include "core/joint_abr.h"

#include <algorithm>
#include <cassert>

namespace demuxabr {

JointController::JointController(std::vector<ComboView> allowed,
                                 bool use_average_bandwidth)
    : allowed_(std::move(allowed)), use_average_bandwidth_(use_average_bandwidth) {
  assert(!allowed_.empty());
  assert(std::is_sorted(allowed_.begin(), allowed_.end(),
                        [](const ComboView& a, const ComboView& b) {
                          return a.bandwidth_kbps < b.bandwidth_kbps;
                        }));
}

std::size_t JointAbrController::decide(double now, double estimate_kbps,
                                       double min_buffer_s) {
  const double budget = kSafetyFactor * estimate_kbps;

  // Highest sustainable combination under the plain budget.
  std::size_t sustainable = 0;
  for (std::size_t i = 0; i < allowed_.size(); ++i) {
    if (requirement_kbps(i) <= budget) sustainable = i;
  }
  // Highest combination that also clears the up-switch margin.
  std::size_t confident = 0;
  for (std::size_t i = 0; i < allowed_.size(); ++i) {
    if (requirement_kbps(i) * config_.up_switch_margin <= budget) confident = i;
  }

  if (!initialized_) {
    // Start conservatively: sustainable under the first estimate (the
    // lowest combination when no estimate exists yet).
    current_ = estimate_kbps > 0.0 ? sustainable : 0;
    initialized_ = true;
    last_switch_t_ = now;
    return current_;
  }

  // Panic: the buffer is nearly dry — drop to sustainable immediately.
  if (min_buffer_s < kPanicBufferS && sustainable < current_) {
    current_ = sustainable;
    last_switch_t_ = now;
    return current_;
  }

  const bool hold_expired = now - last_switch_t_ >= config_.min_hold_s;

  if (confident > current_) {
    // Up-switch: requires margin, buffer cushion and hold expiry.
    if (hold_expired && min_buffer_s >= config_.min_buffer_for_up_s) {
      current_ = confident;
      last_switch_t_ = now;
    }
  } else if (sustainable < current_) {
    // Down-switch: ride a comfortable buffer through estimate dips, else
    // follow the estimate down once the hold expires.
    if (min_buffer_s < config_.hold_buffer_s && hold_expired) {
      current_ = sustainable;
      last_switch_t_ = now;
    }
  }
  return current_;
}

}  // namespace demuxabr
