// Bandwidth estimators modelled after the three players the paper studies,
// plus the aggregate estimator the §4.2 best-practice player uses.
//
//  * ShakaBandwidthEstimator — per-interval (delta = 0.125 s) samples,
//    discarded unless >= 16 KB was transferred in the interval; dual
//    half-life EWMA (fast 2 s / slow 5 s), estimate = min(fast, slow);
//    500 kbps default until enough weight accumulates. (§3.3)
//  * ExoBandwidthMeter — weighted sliding percentile (weight = sqrt(bytes),
//    median) over completed transfers; 1 Mbps initial estimate. (§3.2)
//  * WindowThroughputEstimator — dash.js ThroughputRule: arithmetic mean of
//    the last N (default 4) chunk throughputs of ONE media type. (§3.4)
//  * AggregateThroughputEstimator — sums concurrent audio+video progress in
//    each interval before sampling, so a shared bottleneck is measured as
//    one pipe (the fix for Shaka's under-estimation). (§4.2)
#pragma once

#include <cstdint>

#include "sim/player.h"
#include "util/stats.h"

namespace demuxabr {

struct ShakaEstimatorConfig {
  double default_estimate_kbps = 500.0;
  std::int64_t min_bytes = 16 * 1024;  ///< sample filter threshold
  /// Accumulated sample weight (seconds) required before the estimate is
  /// trusted over the default.
  double min_total_weight_s = 0.5;
};

class ShakaBandwidthEstimator {
 public:
  /// shaka.abr.EwmaBandwidthEstimator's fast and slow half-lives.
  static constexpr double kFastHalfLifeS = 2.0;
  static constexpr double kSlowHalfLifeS = 5.0;

  explicit ShakaBandwidthEstimator(ShakaEstimatorConfig config = {}) : config_(config) {}

  /// Feed one per-interval progress sample (from one flow). Applies the
  /// >= 16 KB filter internally.
  void on_progress(const ProgressSample& sample);

  [[nodiscard]] double estimate_kbps() const;
  [[nodiscard]] bool has_good_estimate() const;
  [[nodiscard]] std::size_t accepted_samples() const { return accepted_; }
  [[nodiscard]] std::size_t rejected_samples() const { return rejected_; }

 private:
  ShakaEstimatorConfig config_;
  HalfLifeEwma fast_{kFastHalfLifeS};
  HalfLifeEwma slow_{kSlowHalfLifeS};
  std::size_t accepted_ = 0;
  std::size_t rejected_ = 0;
};

class ExoBandwidthMeter {
 public:
  /// DefaultBandwidthMeter: the estimate before the first transfer, the
  /// weighted percentile it reports, and the sample weight it retains.
  static constexpr double kInitialEstimateKbps = 1000.0;
  static constexpr double kPercentile = 0.5;
  static constexpr double kMaxWeight = 2000.0;

  /// One completed transfer (chunk download): bytes over wall seconds.
  void on_transfer_end(std::int64_t bytes, double duration_s);

  [[nodiscard]] double estimate_kbps() const;

 private:
  SlidingPercentile percentile_{kMaxWeight};
};

class WindowThroughputEstimator {
 public:
  explicit WindowThroughputEstimator(std::size_t window = 4,
                                     double default_estimate_kbps = 0.0);

  void add_chunk_throughput(double kbps);

  /// Arithmetic mean of the window; the default when no samples yet.
  [[nodiscard]] double estimate_kbps() const;
  [[nodiscard]] bool has_samples() const { return window_.size() > 0; }

 private:
  SlidingWindow window_;
  double default_estimate_kbps_;
};

class AggregateThroughputEstimator {
 public:
  /// The fast and slow half-lives of the muxed and coordinated players.
  static constexpr double kFastHalfLifeS = 2.0;
  static constexpr double kSlowHalfLifeS = 6.0;

  /// Feed every flow's progress sample; samples sharing the same interval
  /// end-time are summed into one link-level sample.
  void on_progress(const ProgressSample& sample);

  /// min(fast, slow); 0 until the first interval completes.
  [[nodiscard]] double estimate_kbps() const;
  [[nodiscard]] bool has_estimate() const;

 private:
  void flush();

  HalfLifeEwma fast_{kFastHalfLifeS};
  HalfLifeEwma slow_{kSlowHalfLifeS};
  double interval_t0_ = -1.0;
  double interval_t1_ = -1.0;
  std::int64_t interval_bytes_ = 0;
};

}  // namespace demuxabr
