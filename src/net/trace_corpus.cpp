#include "net/trace_corpus.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"
#include "util/strings.h"

namespace demuxabr {
namespace {

/// Distinct per-class salts so the four classes draw independent parameter
/// streams from the same caller seed.
constexpr std::uint64_t kLteSalt = 0x17E1A11D0FF5ULL;
constexpr std::uint64_t kWifiSalt = 0xF1A67F1A67F1ULL;
constexpr std::uint64_t kLongFatSalt = 0x10F5B16F57ULL;
constexpr std::uint64_t kSawSalt = 0x05C111A7E5ULL;

struct RawStep {
  double duration_s;
  double kbps;
};

/// Trim the trajectory to exactly `duration_s`, renormalize its
/// time-weighted mean onto `target_mean`, clamp every rate into
/// [floor, ceil], merge equal-rate neighbours, and wrap the result in a
/// periodic BandwidthTrace (period == duration_s). The renormalization is
/// what turns "plausible trajectory" into "envelope contract": whatever the
/// dwell draws did, the mean lands on the sampled target (up to the rare
/// clamp), so the per-class mean band holds for every seed.
BandwidthTrace finish_trace(std::vector<RawStep> steps, double duration_s,
                            double target_mean, double floor_kbps, double ceil_kbps) {
  assert(!steps.empty());
  // Trim to the exact duration; fold a sub-50 ms tail into the last step so
  // no degenerate sliver segment survives.
  std::vector<RawStep> trimmed;
  double t = 0.0;
  for (RawStep& step : steps) {
    if (t >= duration_s) break;
    step.duration_s = std::min(step.duration_s, duration_s - t);
    t += step.duration_s;
    trimmed.push_back(step);
  }
  const double remainder = duration_s - t;
  if (remainder > 0.0) trimmed.back().duration_s += remainder;

  double area = 0.0;
  for (const RawStep& step : trimmed) area += step.duration_s * step.kbps;
  const double raw_mean = area / duration_s;
  const double factor = raw_mean > 0.0 ? target_mean / raw_mean : 1.0;
  for (RawStep& step : trimmed) {
    step.kbps = std::clamp(step.kbps * factor, floor_kbps, ceil_kbps);
  }

  std::vector<BandwidthTrace::Step> merged;
  for (const RawStep& step : trimmed) {
    if (!merged.empty() && merged.back().kbps == step.kbps) {
      merged.back().duration_s += step.duration_s;
    } else {
      merged.push_back({step.duration_s, step.kbps});
    }
  }
  return BandwidthTrace::steps(merged, /*repeat=*/true);
}

double clamped_exponential(Rng& rng, double mean, double lo, double hi) {
  return std::clamp(rng.exponential(1.0 / mean), lo, hi);
}

double multiplicative_jitter(Rng& rng, double stddev, double lo, double hi) {
  return std::clamp(1.0 + rng.normal(0.0, stddev), lo, hi);
}

/// Every generator draws steps until they cover `duration_s`: an infinite
/// duration never ends the loop, and a non-positive or NaN one leaves no
/// segment.
void require_duration(const char* generator, double duration_s) {
  if (!(std::isfinite(duration_s) && duration_s > 0.0)) {
    throw std::invalid_argument(
        format("%s: duration_s must be finite and > 0 (got %g)", generator, duration_s));
  }
}

}  // namespace

BandwidthTrace lte_trace(double duration_s, std::uint64_t seed) {
  require_duration("lte_trace", duration_s);
  Rng rng(seed ^ kLteSalt);
  const double target_mean = rng.uniform(1800.0, 3200.0);

  // Five coverage states, sticky mostly-neighbour transitions (the canned
  // cellular() shape), with per-segment fading jitter.
  const double state_kbps[5] = {150.0, 500.0, 1500.0, 4000.0, 9000.0};
  const double state_dwell_s[5] = {3.0, 5.0, 7.0, 7.0, 5.0};
  const std::vector<std::vector<double>> transitions = {
      {0.3, 0.5, 0.15, 0.05, 0.0},
      {0.2, 0.3, 0.4, 0.1, 0.0},
      {0.05, 0.25, 0.3, 0.35, 0.05},
      {0.0, 0.1, 0.3, 0.4, 0.2},
      {0.0, 0.05, 0.15, 0.4, 0.4},
  };

  std::vector<RawStep> steps;
  std::size_t state = 2;  // start in fair coverage
  double t = 0.0;
  double next_handoff = rng.uniform(15.0, 35.0);
  while (t < duration_s) {
    if (t >= next_handoff) {
      // Handoff drop: the UE re-attaches; throughput collapses for well
      // under two seconds.
      const double drop_s = rng.uniform(0.4, 1.5);
      steps.push_back({drop_s, rng.uniform(40.0, 120.0)});
      t += drop_s;
      next_handoff = t + rng.uniform(15.0, 35.0);
      continue;
    }
    const double dwell = clamped_exponential(rng, state_dwell_s[state], 0.5, 15.0);
    const double jitter = multiplicative_jitter(rng, 0.12, 0.6, 1.6);
    steps.push_back({dwell, state_kbps[state] * jitter});
    t += dwell;
    state = rng.weighted_index(transitions[state]);
  }
  return finish_trace(std::move(steps), duration_s, target_mean, 20.0, 20000.0);
}

BandwidthTrace flaky_wifi_trace(double duration_s, std::uint64_t seed) {
  require_duration("flaky_wifi_trace", duration_s);
  Rng rng(seed ^ kWifiSalt);
  const double target_mean = rng.uniform(2500.0, 5500.0);
  const double on_kbps = rng.uniform(4000.0, 9000.0);
  const double off_kbps = rng.uniform(30.0, 90.0);
  const double on_mean_s = rng.uniform(3.0, 8.0);
  const double off_mean_s = rng.uniform(0.6, 2.0);

  std::vector<RawStep> steps;
  double t = 0.0;
  bool on = true;
  while (t < duration_s) {
    if (on) {
      const double dwell = clamped_exponential(rng, on_mean_s, 0.4, 20.0);
      steps.push_back({dwell, on_kbps * multiplicative_jitter(rng, 0.2, 0.5, 1.8)});
      t += dwell;
    } else {
      const double dwell = clamped_exponential(rng, off_mean_s, 0.2, 6.0);
      steps.push_back({dwell, off_kbps * rng.uniform(0.7, 1.3)});
      t += dwell;
    }
    on = !on;
  }
  return finish_trace(std::move(steps), duration_s, target_mean, 5.0, 30000.0);
}

BandwidthTrace long_fat_trace(double duration_s, std::uint64_t seed) {
  require_duration("long_fat_trace", duration_s);
  Rng rng(seed ^ kLongFatSalt);
  const double target_mean = rng.uniform(15000.0, 35000.0);
  const double amplitude = rng.uniform(0.15, 0.35);
  const double period_s = rng.uniform(60.0, 150.0);
  const double phase = rng.uniform(0.0, 2.0 * 3.14159265358979323846);

  std::vector<RawStep> steps;
  double t = 0.0;
  while (t < duration_s) {
    const double dt = rng.uniform(2.0, 5.0);
    const double swell =
        1.0 + amplitude * std::sin(2.0 * 3.14159265358979323846 * t / period_s + phase);
    const double noise = multiplicative_jitter(rng, 0.03, 0.9, 1.1);
    steps.push_back({dt, target_mean * swell * noise});
    t += dt;
  }
  return finish_trace(std::move(steps), duration_s, target_mean, 6000.0, 60000.0);
}

BandwidthTrace oscillating_trace(double duration_s, std::uint64_t seed) {
  require_duration("oscillating_trace", duration_s);
  Rng rng(seed ^ kSawSalt);
  const double target_mean = rng.uniform(800.0, 2000.0);
  const double ratio = rng.uniform(3.0, 6.0);
  const double ramp_s = rng.uniform(20.0, 50.0);
  const double step_s = rng.uniform(1.0, 3.0);
  // lo placed so the sawtooth midpoint sits at the target mean; the
  // renormalization in finish_trace() then only corrects the small
  // quantization bias of the staircase.
  const double lo = 2.0 * target_mean / (1.0 + ratio);
  const double hi = lo * ratio;
  const int ramp_steps = std::max(2, static_cast<int>(std::ceil(ramp_s / step_s)));

  std::vector<RawStep> steps;
  double t = 0.0;
  int j = 0;
  while (t < duration_s) {
    const double frac = static_cast<double>(j % ramp_steps) /
                        static_cast<double>(ramp_steps - 1);
    steps.push_back({step_s, lo + (hi - lo) * frac});
    t += step_s;
    ++j;
  }
  return finish_trace(std::move(steps), duration_s, target_mean, 80.0, 16000.0);
}

TraceMoments trace_moments(const BandwidthTrace& trace) {
  const std::vector<BandwidthTrace::Segment>& segments = trace.segments();
  assert(!segments.empty());
  TraceMoments m;
  m.segments = segments.size();

  // Per-segment weights: consecutive-start gaps, with the final segment
  // closed by the period (periodic) or by the mean finite duration
  // (aperiodic; 1 s when it is the only segment).
  std::vector<double> weights(segments.size());
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    weights[i] = segments[i + 1].start_s - segments[i].start_s;
  }
  if (trace.period_s() > 0.0) {
    weights.back() = trace.period_s() - segments.back().start_s;
  } else if (segments.size() > 1) {
    double finite = 0.0;
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) finite += weights[i];
    weights.back() = finite / static_cast<double>(segments.size() - 1);
  } else {
    weights.back() = 1.0;
  }

  double total_w = 0.0;
  double area = 0.0;
  m.min_kbps = segments.front().kbps;
  m.max_kbps = segments.front().kbps;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    total_w += weights[i];
    area += weights[i] * segments[i].kbps;
    m.min_kbps = std::min(m.min_kbps, segments[i].kbps);
    m.max_kbps = std::max(m.max_kbps, segments[i].kbps);
  }
  m.mean_kbps = area / total_w;
  double var_area = 0.0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const double d = segments[i].kbps - m.mean_kbps;
    var_area += weights[i] * d * d;
  }
  m.variance = var_area / total_w;
  m.cv = m.mean_kbps > 0.0 ? std::sqrt(m.variance) / m.mean_kbps : 0.0;

  // Rate *changes* (neighbouring segments always differ after generator
  // merging, but CSV-loaded traces may repeat rates) and the longest
  // constant-rate dwell. A periodic trace also changes (or dwells) across
  // the wrap from the last segment back to the first.
  int changes = 0;
  double dwell = weights[0];
  m.max_dwell_s = 0.0;
  for (std::size_t i = 1; i < segments.size(); ++i) {
    if (segments[i].kbps != segments[i - 1].kbps) {
      ++changes;
      m.max_dwell_s = std::max(m.max_dwell_s, dwell);
      dwell = weights[i];
    } else {
      dwell += weights[i];
    }
  }
  m.max_dwell_s = std::max(m.max_dwell_s, dwell);
  if (trace.period_s() > 0.0) {
    if (segments.back().kbps != segments.front().kbps) {
      ++changes;
    } else if (segments.size() > 1) {
      // Constant run spanning the wrap: tail dwell + head dwell.
      double head = weights[0];
      for (std::size_t i = 1; i < segments.size() &&
                              segments[i].kbps == segments.front().kbps;
           ++i) {
        head += weights[i];
      }
      m.max_dwell_s = std::max(m.max_dwell_s, dwell + head);
    }
    m.changes_per_min = static_cast<double>(changes) / (trace.period_s() / 60.0);
  } else {
    m.changes_per_min = total_w > 0.0 ? static_cast<double>(changes) / (total_w / 60.0)
                                      : 0.0;
  }
  return m;
}

std::string check_envelope(const BandwidthTrace& trace, const TraceEnvelope& envelope) {
  const TraceMoments m = trace_moments(trace);
  if (m.min_kbps < envelope.floor_kbps) {
    return format("segment rate %.3f kbps below floor %.3f", m.min_kbps,
                  envelope.floor_kbps);
  }
  if (m.max_kbps > envelope.ceil_kbps) {
    return format("segment rate %.3f kbps above ceiling %.3f", m.max_kbps,
                  envelope.ceil_kbps);
  }
  if (m.mean_kbps < envelope.mean_lo_kbps || m.mean_kbps > envelope.mean_hi_kbps) {
    return format("mean %.3f kbps outside [%.3f, %.3f]", m.mean_kbps,
                  envelope.mean_lo_kbps, envelope.mean_hi_kbps);
  }
  if (m.cv < envelope.cv_lo || m.cv > envelope.cv_hi) {
    return format("coefficient of variation %.4f outside [%.4f, %.4f]", m.cv,
                  envelope.cv_lo, envelope.cv_hi);
  }
  if (m.changes_per_min < envelope.min_changes_per_min) {
    return format("%.2f rate changes/min below floor %.2f", m.changes_per_min,
                  envelope.min_changes_per_min);
  }
  if (m.max_dwell_s > envelope.max_dwell_s) {
    return format("constant dwell %.3f s exceeds cap %.3f", m.max_dwell_s,
                  envelope.max_dwell_s);
  }
  return "";
}

const std::vector<TraceClass>& trace_class_registry() {
  static const std::vector<TraceClass> registry = {
      {"lte-handoff",
       "LTE-like cellular: sticky coverage states, fading jitter, periodic "
       "sub-second handoff drops",
       {/*floor=*/20.0, /*ceil=*/20000.0, /*mean_lo=*/1500.0, /*mean_hi=*/3600.0,
        /*cv_lo=*/0.3, /*cv_hi=*/1.6, /*min_changes_per_min=*/6.0,
        /*max_dwell=*/60.0},
       &lte_trace},
      {"flaky-wifi",
       "on/off wifi bursts: long good-throughput bursts, short near-outage "
       "gaps, exponential dwells",
       {/*floor=*/5.0, /*ceil=*/30000.0, /*mean_lo=*/2100.0, /*mean_hi=*/6100.0,
        /*cv_lo=*/0.25, /*cv_hi=*/1.6, /*min_changes_per_min=*/5.0,
        /*max_dwell=*/65.0},
       &flaky_wifi_trace},
      {"long-fat",
       "high-BDP pipe: tens of Mbps, slow sinusoidal capacity oscillation, "
       "small discretization noise",
       {/*floor=*/6000.0, /*ceil=*/60000.0, /*mean_lo=*/14000.0,
        /*mean_hi=*/36500.0, /*cv_lo=*/0.05, /*cv_hi=*/0.35,
        /*min_changes_per_min=*/8.0, /*max_dwell=*/16.0},
       &long_fat_trace},
      {"oscillating",
       "sawtooth: linear ramp from a low floor to k x floor over tens of "
       "seconds, then collapse and repeat",
       {/*floor=*/80.0, /*ceil=*/16000.0, /*mean_lo=*/700.0, /*mean_hi=*/2100.0,
        /*cv_lo=*/0.18, /*cv_hi=*/0.55, /*min_changes_per_min=*/15.0,
        /*max_dwell=*/10.0},
       &oscillating_trace},
  };
  return registry;
}

const TraceClass* find_trace_class(const std::string& name) {
  for (const TraceClass& tc : trace_class_registry()) {
    if (tc.name == name) return &tc;
  }
  return nullptr;
}

BandwidthTrace scale_trace(const BandwidthTrace& trace, double factor) {
  assert(factor > 0.0);
  const std::vector<BandwidthTrace::Segment>& segments = trace.segments();
  std::vector<BandwidthTrace::Step> steps;
  steps.reserve(segments.size());
  for (std::size_t i = 0; i < segments.size(); ++i) {
    double duration;
    if (i + 1 < segments.size()) {
      duration = segments[i + 1].start_s - segments[i].start_s;
    } else if (trace.period_s() > 0.0) {
      duration = trace.period_s() - segments.back().start_s;
    } else {
      duration = 1.0;  // aperiodic tail: the last rate holds forever anyway
    }
    steps.push_back({duration, segments[i].kbps * factor});
  }
  return BandwidthTrace::steps(steps, trace.period_s() > 0.0);
}

}  // namespace demuxabr
