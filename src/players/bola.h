// BOLA (Buffer Occupancy based Lyapunov Algorithm) [Spiteri et al.,
// INFOCOM'16], parameterized the way dash.js's BolaRule does it. Used by the
// DashJsPlayerModel's DYNAMIC rule (§3.4).
#pragma once

#include <cstddef>
#include <vector>

namespace demuxabr {

class Bola {
 public:
  /// `bitrates_kbps` must be ascending; `stable_buffer_s` is dash.js's
  /// stableBufferTime (default 12 s).
  Bola(std::vector<double> bitrates_kbps, double stable_buffer_s);

  /// Track index maximizing the BOLA objective
  ///   (Vp * (utility_m + gp) - buffer) / bitrate_m
  /// at the given buffer level. Always returns a valid index; the caller's
  /// scheduler is responsible for pausing downloads when the buffer exceeds
  /// its target (dash.js splits the two concerns the same way).
  [[nodiscard]] std::size_t choose(double buffer_s) const;

  [[nodiscard]] double buffer_target_s() const { return buffer_target_s_; }
  [[nodiscard]] double gp() const { return gp_; }
  [[nodiscard]] double vp() const { return vp_; }
  [[nodiscard]] const std::vector<double>& utilities() const { return utilities_; }

 private:
  [[nodiscard]] double score(std::size_t index, double buffer_s) const;

  std::vector<double> bitrates_kbps_;
  std::vector<double> utilities_;  ///< ln(b_m / b_0) shifted so min is 1
  double buffer_target_s_ = 0.0;
  double gp_ = 0.0;
  double vp_ = 0.0;
};

}  // namespace demuxabr
