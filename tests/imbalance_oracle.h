// Test oracle for SessionLog::mean_buffer_imbalance_s(). The session folds
// the §3.4 imbalance into SessionTotals at every tick; this recomputes it
// independently from the recorded buffer series, with the same
// left-endpoint rule, so it needs a log that recorded series.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "sim/metrics.h"

namespace demuxabr {

/// Time-weighted mean |audio − video| buffer level walked over the buffer
/// series (both are sampled at the same tick instants); 0 when the walked
/// span is 0.
inline double series_imbalance_s(const SessionLog& log) {
  const auto& audio = log.audio_buffer_s.points();
  const auto& video = log.video_buffer_s.points();
  const std::size_t n = std::min(audio.size(), video.size());
  if (n < 2) return 0.0;
  double integral = 0.0;
  double total = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const double dt = audio[i].t - audio[i - 1].t;
    if (dt <= 0.0) continue;
    integral += std::abs(audio[i - 1].value - video[i - 1].value) * dt;
    total += dt;
  }
  return total > 0.0 ? integral / total : 0.0;
}

}  // namespace demuxabr
