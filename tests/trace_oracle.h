// Test oracle for BandwidthTrace::lookup (net/bandwidth_trace.h): the
// rate and next-change queries written out as two separate searches, the
// next change as a linear scan over the segment starts. Both apply the
// same periodic reduction and merge slack as the library's one binary
// search, so every query must agree with them to the last bit
// (TraceLookup.MatchesTheLinearScanOracleBitForBit).
#pragma once

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "net/bandwidth_trace.h"

namespace demuxabr {

/// The rate in force at absolute time t.
inline double oracle_rate_kbps(const BandwidthTrace& trace, double t) {
  const std::vector<BandwidthTrace::Segment>& segments = trace.segments();
  const double period = trace.period_s();
  if (t < 0.0) t = 0.0;
  double local = t;
  if (period > 0.0) {
    double base = std::floor(t / period) * period;
    while (base + period <= t) base += period;
    local = t - base;
  }
  // A query landing within eps below a boundary belongs to the segment
  // that starts at that boundary.
  const double eps = 1e-12 + t * 4e-16;
  if (period > 0.0 && local + eps >= period) return segments.front().kbps;
  // Last segment whose start <= local (+ slack).
  auto it = std::upper_bound(segments.begin(), segments.end(), local + eps,
                             [](double x, const BandwidthTrace::Segment& s) {
                               return x < s.start_s;
                             });
  return std::prev(it)->kbps;
}

/// The next absolute time > t at which the rate changes; +infinity when
/// it never changes again.
inline double oracle_next_change_after(const BandwidthTrace& trace, double t) {
  const std::vector<BandwidthTrace::Segment>& segments = trace.segments();
  const double period = trace.period_s();
  if (t < 0.0) t = 0.0;
  double base = 0.0;
  double local = t;
  if (period > 0.0) {
    base = std::floor(t / period) * period;
    // floor(t/period)*period can land a full period below t when t sits
    // exactly on a wrap boundary in floating point; renormalize so
    // base + period > t strictly.
    while (base + period <= t) base += period;
    local = t - base;
  }
  const double eps = 1e-12 + t * 4e-16;
  for (const BandwidthTrace::Segment& s : segments) {
    if (s.start_s > local + eps) return base + s.start_s;
  }
  if (period > 0.0) return base + period;  // wraps to segment 0
  return std::numeric_limits<double>::infinity();
}

}  // namespace demuxabr
