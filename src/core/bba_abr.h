// Buffer-based joint A/V adaptation (BBA-0 style, Huang et al. [12] — one of
// the adaptation families the paper's related work surveys), lifted to the
// allowed-combination ladder: the decision variable is the combination
// index, driven purely by buffer occupancy.
//
//   buffer <= reservoir            -> lowest combination
//   buffer >= reservoir + cushion  -> highest combination
//   in between                     -> the rate map f(buffer) interpolates
//                                     linearly between R_min and R_max, with
//                                     BBA's hysteresis: switch up only when
//                                     f(buffer) crosses the NEXT rung's rate,
//                                     down only when it falls below the
//                                     CURRENT rung's.
// Needs no bandwidth estimate at all — a useful counterpoint to the rate
// and MPC controllers in the ablation benches.
#pragma once

#include <cstddef>
#include <vector>

#include "core/joint_abr.h"

namespace demuxabr {

/// Requirements are declared averages where present (JointController).
class BufferBasedJointAbr : public JointController {
 public:
  /// The reservoir and cushion of the rate map above, in buffer seconds.
  static constexpr double kReservoirS = 8.0;
  static constexpr double kCushionS = 16.0;

  /// `allowed` must be sorted by ascending bandwidth.
  explicit BufferBasedJointAbr(std::vector<ComboView> allowed)
      : JointController(std::move(allowed), /*use_average_bandwidth=*/true) {}

  /// Decide the combination for the next chunk from the buffer level alone.
  std::size_t decide(double min_buffer_s);
  std::size_t decide(const JointInputs& in) override { return decide(in.min_buffer_s); }

  /// The rate map f(buffer) in kbps.
  [[nodiscard]] double rate_map_kbps(double buffer_s) const;
};

}  // namespace demuxabr
