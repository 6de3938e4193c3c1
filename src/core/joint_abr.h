// Joint audio/video adaptation over the allowed-combination ladder (§4.2).
//
// Implements the paper's recommendations directly:
//   * audio and video are selected together, as one combination index;
//   * only combinations from the allowed list are considered;
//   * switches are damped (hold time, up-switch margin, buffer gates) so
//     neither audio nor video flutters the way Shaka's memoryless rate rule
//     does (§3.3).
#pragma once

#include <cstddef>
#include <vector>

#include "manifest/view.h"

namespace demuxabr {

/// What a joint controller may read when it decides.
struct JointInputs {
  double now = 0.0;
  double estimate_kbps = 0.0;
  double min_buffer_s = 0.0;  ///< min of the audio and video buffers
  double chunk_duration_s = 0.0;
};

/// The ladder every joint controller adapts over (this rate controller, MPC
/// and BBA), and the one decision call CoordinatedPlayer makes on any of
/// them.
class JointController {
 public:
  /// `allowed` must be non-empty and sorted by ascending bandwidth.
  JointController(std::vector<ComboView> allowed, bool use_average_bandwidth);
  virtual ~JointController() = default;
  JointController(const JointController&) = default;
  JointController& operator=(const JointController&) = default;
  JointController(JointController&&) = default;
  JointController& operator=(JointController&&) = default;

  /// Decide the combination for the next chunk position.
  virtual std::size_t decide(const JointInputs& in) = 0;

  [[nodiscard]] std::size_t current_index() const { return current_; }
  [[nodiscard]] const std::vector<ComboView>& allowed() const { return allowed_; }
  /// Bandwidth requirement of combination i: its declared average when
  /// preferred and declared, else its peak.
  [[nodiscard]] double requirement_kbps(std::size_t i) const {
    const ComboView& combo = allowed_[i];
    return use_average_bandwidth_ && combo.avg_bandwidth_kbps > 0.0 ? combo.avg_bandwidth_kbps
                                                                    : combo.bandwidth_kbps;
  }

 protected:
  std::vector<ComboView> allowed_;
  std::size_t current_ = 0;

 private:
  bool use_average_bandwidth_;
};

struct JointAbrConfig {
  /// Up-switches additionally require estimate * safety >= margin * need.
  double up_switch_margin = 1.15;
  /// Minimum time between voluntary switches.
  double min_hold_s = 8.0;
  /// Up-switches require at least this much buffer (min of A/V).
  double min_buffer_for_up_s = 10.0;
  /// With this much buffer, ride out a temporary estimate dip (no down).
  double hold_buffer_s = 20.0;
  /// Prefer declared AVERAGE-BANDWIDTH over peak BANDWIDTH when present.
  bool use_average_bandwidth = true;
};

class JointAbrController : public JointController {
 public:
  /// Fraction of the estimate considered spendable (also the per-path
  /// budget of CoordinatedPlayer's split-path mode).
  static constexpr double kSafetyFactor = 0.85;
  /// Below this buffer, drop immediately to the sustainable combination.
  static constexpr double kPanicBufferS = 4.0;

  explicit JointAbrController(std::vector<ComboView> allowed, JointAbrConfig config = {})
      : JointController(std::move(allowed), config.use_average_bandwidth), config_(config) {}

  /// Decide the combination for the next chunk. Deterministic in its inputs.
  std::size_t decide(double now, double estimate_kbps, double min_buffer_s);
  std::size_t decide(const JointInputs& in) override {
    return decide(in.now, in.estimate_kbps, in.min_buffer_s);
  }

  [[nodiscard]] const ComboView& current() const { return allowed_[current_]; }

 private:
  JointAbrConfig config_;
  bool initialized_ = false;
  double last_switch_t_ = -1e18;
};

}  // namespace demuxabr
