// Piecewise-constant bandwidth traces — the simulation stand-in for the
// paper's `tc`-shaped server-to-client links (§3.1). Fixed-rate and
// time-varying (square wave, multi-step, bounded random walk) profiles
// cover every experiment in §3; traces can also be loaded from CSV.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/result.h"

namespace demuxabr {

class BandwidthTrace {
 public:
  struct Segment {
    double start_s = 0.0;  ///< segment start time
    double kbps = 0.0;     ///< rate during the segment
  };

  /// An empty trace, to be assigned. Every query on it is undefined;
  /// TopologySpec::validate() rejects a link that carries one.
  BandwidthTrace() = default;

  // Every builder throws std::invalid_argument on a rate that is negative
  // or not finite; a rate of 0 models a dark link.

  /// Fixed rate forever.
  static BandwidthTrace constant(double kbps);

  /// Alternating low/high square wave, repeating forever.
  /// `start_high` selects the first phase. Throws std::invalid_argument
  /// unless both durations are positive.
  static BandwidthTrace square_wave(double low_kbps, double high_kbps,
                                    double low_duration_s, double high_duration_s,
                                    bool start_high = false);

  /// Explicit steps (duration, rate). When `repeat`, the pattern loops;
  /// otherwise the last rate holds forever. Throws std::invalid_argument
  /// when `steps` is empty or a duration is not positive.
  struct Step {
    double duration_s;
    double kbps;
  };
  static BandwidthTrace steps(const std::vector<Step>& steps, bool repeat);

  /// Bounded random walk: rate changes every `step_interval_s` by a normal
  /// perturbation with `volatility_kbps` stddev, clamped to [min, max].
  /// Generates `total_duration_s` worth of segments then repeats. Throws
  /// std::invalid_argument unless `step_interval_s` is positive.
  static BandwidthTrace random_walk(double min_kbps, double max_kbps,
                                    double step_interval_s, double total_duration_s,
                                    double volatility_kbps, std::uint64_t seed);

  /// Markov-modulated trace: the link dwells in a state (exponential dwell
  /// time around `mean_dwell_s`), emitting its rate with multiplicative
  /// jitter, then transitions according to the row-stochastic matrix.
  struct MarkovState {
    double rate_kbps;
    double mean_dwell_s;
  };
  static BandwidthTrace markov(const std::vector<MarkovState>& states,
                               const std::vector<std::vector<double>>& transitions,
                               double total_duration_s, double jitter_fraction,
                               std::uint64_t seed);

  /// Canned LTE-like cellular profile (five states from deep fade to good
  /// coverage, sticky transitions), repeating after `total_duration_s`.
  static BandwidthTrace cellular(double total_duration_s, std::uint64_t seed);

  /// Load from CSV with header "t,kbps" (times ascending from 0).
  /// `period_s` > 0 makes the loaded trace periodic (it must exceed the last
  /// segment's start time); 0 keeps the historical aperiodic behavior.
  static Result<BandwidthTrace> from_csv(const std::string& csv_text,
                                         double period_s = 0.0);

  /// What one search of the trace answers about absolute time t: the rate
  /// in force at t and the next time the rate changes.
  struct Lookup {
    double kbps = 0.0;
    /// The next absolute time > t at which the rate changes; +infinity
    /// when it never changes again.
    double next_change_s = 0.0;
  };

  /// The rate at t and the next change after t from one binary search of
  /// the segment starts (wraps when periodic). A query within the merge
  /// slack (1e-12 + t * 4e-16) below a boundary belongs to the segment
  /// that starts there. The single-segment aperiodic case (constant
  /// traces: the bulk of fleet hot loops) resolves inline.
  [[nodiscard]] Lookup lookup(double t) const {
    if (segments_.size() == 1 && period_s_ == 0.0) {
      return {segments_.front().kbps, std::numeric_limits<double>::infinity()};
    }
    return lookup_slow(t);
  }

  /// Rate at absolute time t: lookup(t).kbps.
  [[nodiscard]] double rate_kbps(double t) const { return lookup(t).kbps; }

  /// The next absolute time > t at which the rate changes; +infinity when
  /// the rate never changes again: lookup(t).next_change_s.
  [[nodiscard]] double next_change_after(double t) const {
    return lookup(t).next_change_s;
  }

  /// Mean rate over [t0, t1].
  [[nodiscard]] double average_kbps(double t0, double t1) const;

  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }
  /// 0 = aperiodic (last segment's rate holds forever).
  [[nodiscard]] double period_s() const { return period_s_; }

  [[nodiscard]] std::string to_csv() const;

 private:
  /// Throws std::invalid_argument unless the starts rise strictly from 0,
  /// the period is 0 or a finite value past the last start (what the
  /// binary search and the periodic reduction in lookup() rely on), and
  /// every rate is finite and >= 0.
  BandwidthTrace(std::vector<Segment> segments, double period_s);

  [[nodiscard]] Lookup lookup_slow(double t) const;

  std::vector<Segment> segments_;  ///< ascending start times, first at 0
  double period_s_ = 0.0;
};

}  // namespace demuxabr
