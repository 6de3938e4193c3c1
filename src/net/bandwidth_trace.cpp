#include "net/bandwidth_trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/csv.h"
#include "util/rng.h"
#include "util/strings.h"

namespace demuxabr {

BandwidthTrace::BandwidthTrace(std::vector<Segment> segments, double period_s)
    : segments_(std::move(segments)), period_s_(period_s) {
  if (segments_.empty()) throw std::invalid_argument("BandwidthTrace: no segments");
  if (segments_.front().start_s != 0.0) {
    throw std::invalid_argument("BandwidthTrace: the first segment must start at 0");
  }
  // Zero stays legal: a provisioned-but-dark pipe (a topology link no flow
  // ever rides) has capacity 0 and closes its books via the 0/0
  // utilization guard. A negative rate would run the service integral
  // backwards, and a non-finite one would poison it.
  for (const Segment& segment : segments_) {
    if (!(std::isfinite(segment.kbps) && segment.kbps >= 0.0)) {
      throw std::invalid_argument("BandwidthTrace: rates must be finite and >= 0");
    }
  }
  for (std::size_t i = 1; i < segments_.size(); ++i) {
    if (!(segments_[i].start_s > segments_[i - 1].start_s &&
          std::isfinite(segments_[i].start_s))) {
      throw std::invalid_argument(
          "BandwidthTrace: segment starts must be finite and strictly increasing");
    }
  }
  if (period_s_ != 0.0 &&
      !(std::isfinite(period_s_) && period_s_ > segments_.back().start_s)) {
    throw std::invalid_argument(
        "BandwidthTrace: a period must be finite and exceed the last segment start");
  }
}

BandwidthTrace BandwidthTrace::constant(double kbps) {
  return BandwidthTrace({{0.0, kbps}}, 0.0);
}

BandwidthTrace BandwidthTrace::square_wave(double low_kbps, double high_kbps,
                                           double low_duration_s, double high_duration_s,
                                           bool start_high) {
  // Checked here as well as in the constructor: durations summing to 0
  // would build an aperiodic trace the constructor cannot tell apart.
  if (!(low_duration_s > 0.0 && high_duration_s > 0.0)) {
    throw std::invalid_argument("BandwidthTrace::square_wave: durations must be positive");
  }
  std::vector<Segment> segments;
  if (start_high) {
    segments.push_back({0.0, high_kbps});
    segments.push_back({high_duration_s, low_kbps});
  } else {
    segments.push_back({0.0, low_kbps});
    segments.push_back({low_duration_s, high_kbps});
  }
  return BandwidthTrace(std::move(segments), low_duration_s + high_duration_s);
}

BandwidthTrace BandwidthTrace::steps(const std::vector<Step>& steps, bool repeat) {
  std::vector<Segment> segments;
  double t = 0.0;
  for (const Step& step : steps) {
    // As in square_wave: a repeating pattern whose durations sum to 0
    // would pass the constructor as an aperiodic trace.
    if (!(step.duration_s > 0.0)) {
      throw std::invalid_argument("BandwidthTrace::steps: durations must be positive");
    }
    segments.push_back({t, step.kbps});
    t += step.duration_s;
  }
  return BandwidthTrace(std::move(segments), repeat ? t : 0.0);
}

BandwidthTrace BandwidthTrace::random_walk(double min_kbps, double max_kbps,
                                           double step_interval_s, double total_duration_s,
                                           double volatility_kbps, std::uint64_t seed) {
  assert(min_kbps > 0.0 && max_kbps >= min_kbps);
  // The segment loop below steps by the interval: a non-positive one would
  // append segments forever.
  if (!(step_interval_s > 0.0)) {
    throw std::invalid_argument(
        "BandwidthTrace::random_walk: step_interval_s must be positive");
  }
  assert(total_duration_s >= step_interval_s);
  Rng rng(seed);
  std::vector<Segment> segments;
  double rate = (min_kbps + max_kbps) / 2.0;
  for (double t = 0.0; t < total_duration_s; t += step_interval_s) {
    segments.push_back({t, rate});
    rate = std::clamp(rate + rng.normal(0.0, volatility_kbps), min_kbps, max_kbps);
  }
  return BandwidthTrace(std::move(segments), total_duration_s);
}

BandwidthTrace BandwidthTrace::markov(const std::vector<MarkovState>& states,
                                      const std::vector<std::vector<double>>& transitions,
                                      double total_duration_s, double jitter_fraction,
                                      std::uint64_t seed) {
  assert(!states.empty());
  assert(transitions.size() == states.size());
  for ([[maybe_unused]] const auto& row : transitions) assert(row.size() == states.size());
  assert(total_duration_s > 0.0);

  Rng rng(seed);
  std::vector<Segment> segments;
  std::size_t state = 0;
  double t = 0.0;
  while (t < total_duration_s) {
    const MarkovState& s = states[state];
    const double dwell = std::max(0.5, rng.exponential(1.0 / s.mean_dwell_s));
    const double jitter =
        1.0 + std::clamp(rng.normal(0.0, jitter_fraction), -0.9, 3.0);
    segments.push_back({t, std::max(1.0, s.rate_kbps * jitter)});
    t += dwell;
    state = rng.weighted_index(transitions[state]);
  }
  return BandwidthTrace(std::move(segments), total_duration_s);
}

BandwidthTrace BandwidthTrace::cellular(double total_duration_s, std::uint64_t seed) {
  // Five LTE-like states: deep fade, edge-of-cell, fair, good, excellent.
  const std::vector<MarkovState> states = {
      {150.0, 4.0}, {500.0, 6.0}, {1500.0, 8.0}, {4000.0, 8.0}, {9000.0, 6.0}};
  // Sticky, mostly-neighbour transitions.
  const std::vector<std::vector<double>> transitions = {
      {0.3, 0.5, 0.15, 0.05, 0.0},
      {0.2, 0.3, 0.4, 0.1, 0.0},
      {0.05, 0.25, 0.3, 0.35, 0.05},
      {0.0, 0.1, 0.3, 0.4, 0.2},
      {0.0, 0.05, 0.15, 0.4, 0.4},
  };
  return markov(states, transitions, total_duration_s, /*jitter_fraction=*/0.15, seed);
}

Result<BandwidthTrace> BandwidthTrace::from_csv(const std::string& csv_text,
                                                double period_s) {
  if (period_s < 0.0) return Error{"trace csv period must be >= 0"};
  auto doc = parse_csv(csv_text);
  if (!doc.ok()) return Error{doc.error()};
  if (doc->header.size() < 2) return Error{"trace csv needs columns t,kbps"};
  std::vector<Segment> segments;
  for (const auto& row : doc->rows) {
    const auto t = parse_double(row[0]);
    const auto kbps = parse_double(row[1]);
    if (!t.has_value() || !kbps.has_value()) return Error{"trace csv has non-numeric cell"};
    if (!std::isfinite(*t) || !std::isfinite(*kbps)) {
      return Error{"trace csv has a non-finite cell"};
    }
    if (*kbps <= 0.0) return Error{"trace csv has non-positive rate"};
    if (!segments.empty() && *t <= segments.back().start_s) {
      return Error{"trace csv times must be strictly increasing"};
    }
    segments.push_back({*t, *kbps});
  }
  if (segments.empty()) return Error{"trace csv has no rows"};
  if (segments.front().start_s != 0.0) return Error{"trace csv must start at t=0"};
  if (period_s > 0.0 && period_s <= segments.back().start_s) {
    return Error{"trace csv period must exceed the last segment start"};
  }
  return BandwidthTrace(std::move(segments), period_s);
}

BandwidthTrace::Lookup BandwidthTrace::lookup_slow(double t) const {
  if (t < 0.0) t = 0.0;
  double base = 0.0;
  double local = t;
  if (period_s_ > 0.0) {
    base = std::floor(t / period_s_) * period_s_;
    // floor(t/period)*period can land a full period below t when t sits
    // exactly on a wrap boundary in floating point (t/period rounds just
    // under the integer). Renormalize so base + period > t strictly —
    // otherwise the next change would be t itself and every lazy-integration
    // walk that steps boundary-to-boundary would stall there, silently
    // truncating service/utilization integrals.
    while (base + period_s_ <= t) base += period_s_;
    local = t - base;
  }
  // Merge slack: a query landing within eps below a boundary belongs to the
  // segment that starts at that boundary. Without it, a walker that stepped
  // to `base + s.start_s` (whose local reduction rounds just under
  // s.start_s) would hold the previous segment's rate across the entire
  // next segment, and walkers with different boundary sets would integrate
  // different rate functions. The relative term matters once ulp(t)
  // approaches 1e-12: a boundary passing an absolute test could still round
  // back to exactly t in `base + s.start_s`, stalling callers like the wrap
  // case above.
  const double eps = 1e-12 + t * 4e-16;
  // The first segment starting after local + eps; the one before it holds
  // the rate (segment 0 starts at 0 < local + eps, so there always is one).
  const auto next = std::upper_bound(
      segments_.begin(), segments_.end(), local + eps,
      [](double x, const Segment& s) { return x < s.start_s; });
  Lookup result;
  result.kbps = period_s_ > 0.0 && local + eps >= period_s_ ? segments_.front().kbps
                                                            : std::prev(next)->kbps;
  if (next != segments_.end()) {
    result.next_change_s = base + next->start_s;
  } else if (period_s_ > 0.0) {
    result.next_change_s = base + period_s_;  // wraps to segment 0
  } else {
    result.next_change_s = std::numeric_limits<double>::infinity();
  }
  return result;
}

double BandwidthTrace::average_kbps(double t0, double t1) const {
  assert(t1 > t0);
  double area = 0.0;
  double t = t0;
  // Walk breakpoints; bounded iterations for safety.
  for (int guard = 0; guard < 1000000 && t < t1; ++guard) {
    const Lookup here = lookup(t);
    const double next = std::min(t1, here.next_change_s);
    area += here.kbps * (next - t);
    t = next;
  }
  return area / (t1 - t0);
}

std::string BandwidthTrace::to_csv() const {
  std::ostringstream out;
  out << "t,kbps\n";
  // %.17g is round-trip exact for doubles: from_csv(to_csv()) reconstructs
  // every boundary and rate bit-for-bit (the corpus round-trip tests rely
  // on it; %.3f silently quantized sampled boundary times).
  for (const Segment& s : segments_) {
    out << format("%.17g,%.17g\n", s.start_s, s.kbps);
  }
  return out.str();
}

}  // namespace demuxabr
