#include "players/estimators.h"

#include <algorithm>
#include <cmath>

namespace demuxabr {

void ShakaBandwidthEstimator::on_progress(const ProgressSample& sample) {
  if (sample.duration_s() <= 0.0) return;
  // The filter rule the paper dissects: intervals that moved fewer than
  // 16 KB are not considered valid throughput samples (§3.3).
  if (sample.bytes < config_.min_bytes) {
    ++rejected_;
    return;
  }
  ++accepted_;
  const double kbps = sample.throughput_kbps();
  fast_.add(sample.duration_s(), kbps);
  slow_.add(sample.duration_s(), kbps);
}

bool ShakaBandwidthEstimator::has_good_estimate() const {
  return fast_.total_weight() >= config_.min_total_weight_s;
}

double ShakaBandwidthEstimator::estimate_kbps() const {
  if (!has_good_estimate()) return config_.default_estimate_kbps;
  return std::min(fast_.estimate(), slow_.estimate());
}

void ExoBandwidthMeter::on_transfer_end(std::int64_t bytes, double duration_s) {
  if (duration_s <= 0.0 || bytes <= 0) return;
  const double kbps = static_cast<double>(bytes) * 8.0 / 1000.0 / duration_s;
  const double weight = std::sqrt(static_cast<double>(bytes));
  percentile_.add(weight, kbps);
}

double ExoBandwidthMeter::estimate_kbps() const {
  return percentile_.percentile(kPercentile, kInitialEstimateKbps);
}

WindowThroughputEstimator::WindowThroughputEstimator(std::size_t window,
                                                     double default_estimate_kbps)
    : window_(window), default_estimate_kbps_(default_estimate_kbps) {}

void WindowThroughputEstimator::add_chunk_throughput(double kbps) {
  if (kbps > 0.0) window_.add(kbps);
}

double WindowThroughputEstimator::estimate_kbps() const {
  if (window_.size() == 0) return default_estimate_kbps_;
  return window_.mean();
}

void AggregateThroughputEstimator::on_progress(const ProgressSample& sample) {
  if (sample.duration_s() <= 0.0) return;
  if (sample.t1 != interval_t1_) {
    flush();
    interval_t0_ = sample.t0;
    interval_t1_ = sample.t1;
    interval_bytes_ = 0;
  }
  interval_t0_ = std::min(interval_t0_, sample.t0);
  interval_bytes_ += sample.bytes;
}

void AggregateThroughputEstimator::flush() {
  if (interval_t1_ <= interval_t0_ || interval_bytes_ <= 0) return;
  const double duration = interval_t1_ - interval_t0_;
  const double kbps = static_cast<double>(interval_bytes_) * 8.0 / 1000.0 / duration;
  fast_.add(duration, kbps);
  slow_.add(duration, kbps);
  interval_bytes_ = 0;
  interval_t1_ = -1.0;
}

bool AggregateThroughputEstimator::has_estimate() const {
  return fast_.total_weight() > 0.0 || interval_bytes_ > 0;
}

double AggregateThroughputEstimator::estimate_kbps() const {
  if (fast_.total_weight() <= 0.0) {
    // Only a partial interval so far: report its raw throughput.
    if (interval_bytes_ > 0 && interval_t1_ > interval_t0_) {
      return static_cast<double>(interval_bytes_) * 8.0 / 1000.0 /
             (interval_t1_ - interval_t0_);
    }
    return 0.0;
  }
  return std::min(fast_.estimate(), slow_.estimate());
}

}  // namespace demuxabr
