// Streaming statistics primitives used by bandwidth estimators, metrics and
// benchmarks: half-life EWMA (Shaka-style), sliding percentile
// (ExoPlayer-style weighted), sliding mean window.
#pragma once

#include <cstddef>
#include <vector>

namespace demuxabr {

/// Half-life weighted EWMA as used by Shaka Player's bandwidth estimator:
/// each sample carries a weight (e.g. transfer duration in seconds) and the
/// decay is expressed as a half-life over accumulated weight. The estimate is
/// bias-corrected for the initial missing mass, matching shaka.abr.Ewma.
class HalfLifeEwma {
 public:
  explicit HalfLifeEwma(double half_life);

  /// Add a sample `x` carrying `weight` units (seconds of transfer).
  void add(double weight, double x);
  void reset();

  /// Bias-corrected estimate. Memoized between mutations: the correction is
  /// a pow() per call, and the session samples the estimate every tick while
  /// new samples only arrive on transfer progress.
  [[nodiscard]] double estimate() const;
  [[nodiscard]] double total_weight() const { return total_weight_; }

 private:
  double half_life_;
  double estimate_ = 0.0;
  double total_weight_ = 0.0;
  mutable double cached_estimate_ = 0.0;
  mutable bool estimate_stale_ = true;
};

/// Sliding percentile with sample weights, modelled after ExoPlayer's
/// SlidingPercentile (DefaultBandwidthMeter): keeps at most `max_weight`
/// total weight, evicting oldest samples, and answers weighted percentile
/// queries over the retained window.
class SlidingPercentile {
 public:
  explicit SlidingPercentile(double max_weight);

  void add(double weight, double value);
  /// Weighted percentile in [0,1]; returns fallback when empty. Both the
  /// sorted view and the final answer are cached between queries and
  /// invalidated only when the window changes, so repeated readouts of the
  /// same fraction (every ExoPlayer estimate sample) cost two loads — no
  /// allocation, sort, or prefix walk.
  [[nodiscard]] double percentile(double fraction, double fallback) const;
  [[nodiscard]] bool empty() const { return count_ == 0; }
  void clear();

 private:
  struct Sample {
    double weight;
    double value;
  };
  void push_back(const Sample& sample);
  void pop_front();

  double max_weight_;
  double total_weight_ = 0.0;
  /// Power-of-two ring in insertion order (eviction pops the head).
  std::vector<Sample> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  /// Sorted scratch: the window's samples, materialized in insertion order
  /// and sorted by value. Rebuilt lazily — same input sequence as sorting
  /// fresh per query, so results are identical.
  mutable std::vector<Sample> sorted_;
  mutable bool sorted_stale_ = true;
  /// Memoized answer for the last queried fraction (players query a single
  /// configured fraction, so this hits on every read between adds).
  mutable double cached_fraction_ = -1.0;
  mutable double cached_result_ = 0.0;
  mutable bool result_stale_ = true;
};

/// Fixed-size window over the last N samples with an arithmetic mean
/// (dash.js ThroughputRule style).
class SlidingWindow {
 public:
  explicit SlidingWindow(std::size_t capacity);

  void add(double x);
  void clear();

  [[nodiscard]] std::size_t size() const { return count_; }
  /// Arithmetic mean, memoized between adds (dash.js samples it every tick
  /// via the session's bandwidth-estimate series).
  [[nodiscard]] double mean() const;

 private:
  std::size_t capacity_;
  /// Fixed ring, capacity known at construction: one allocation ever. The
  /// folds walk oldest→newest so floating-point sum order matches the
  /// historical deque iteration.
  std::vector<double> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  mutable double cached_mean_ = 0.0;
  mutable bool mean_stale_ = true;
};

/// Jain's fairness index (Σx)² / (n·Σx²) of n non-negative allocations,
/// from their sum Σx and sum of squares Σx² (accumulated in allocation
/// order). 1.0 = perfectly fair (all equal, including all-zero), 1/n = one
/// client hogs everything. Returns 0.0 when n is 0.
double jain_fairness(double sum, double sq_sum, std::size_t n);

/// Order statistics of a sample in one pass: the fleet-report summary shape
/// (per-client bitrate, stall-ratio, buffer-imbalance distributions).
struct PercentileSummary {
  std::size_t count = 0;
  double min = 0.0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double mean = 0.0;
};

/// Summarize an unsorted sample (copies + sorts once). The percentile at
/// `fraction` interpolates linearly between the order statistics around
/// rank fraction · (n − 1).
PercentileSummary summarize_percentiles(std::vector<double> values);

}  // namespace demuxabr
