#include "util/sketch.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace demuxabr {

QuantileSketch::QuantileSketch(double relative_error) : alpha_(relative_error) {
  assert(alpha_ > 0.0 && alpha_ < 1.0);
  gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
  inv_log_gamma_ = 1.0 / std::log(gamma_);
}

int QuantileSketch::bucket_index(double x) const {
  return static_cast<int>(std::ceil(std::log(x) * inv_log_gamma_));
}

double QuantileSketch::bucket_value(int index) const {
  // Midpoint of (gamma^(i-1), gamma^i] in the multiplicative sense: within
  // relative error alpha of every value the bucket can hold.
  return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
}

void QuantileSketch::bump(int index, std::uint64_t by) {
  if (buckets_.empty()) {
    base_index_ = index;
    buckets_.push_back(by);
    return;
  }
  if (index < base_index_) {
    buckets_.insert(buckets_.begin(),
                    static_cast<std::size_t>(base_index_ - index), 0);
    base_index_ = index;
  } else if (index >= base_index_ + static_cast<int>(buckets_.size())) {
    buckets_.resize(static_cast<std::size_t>(index - base_index_) + 1, 0);
  }
  buckets_[static_cast<std::size_t>(index - base_index_)] += by;
}

void QuantileSketch::add(double x) {
  if (!std::isfinite(x) || x < 0.0) x = 0.0;
  if (total_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++total_;
  sum_ += x;
  if (x <= kZeroEps) {
    ++zero_count_;
    return;
  }
  bump(bucket_index(x), 1);
}

void QuantileSketch::merge(const QuantileSketch& other) {
  assert(alpha_ == other.alpha_ && "sketches must share a bucket grid");
  if (other.total_ == 0) return;
  if (total_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  total_ += other.total_;
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  for (std::size_t b = 0; b < other.buckets_.size(); ++b) {
    if (other.buckets_[b] > 0) {
      bump(other.base_index_ + static_cast<int>(b), other.buckets_[b]);
    }
  }
}

double QuantileSketch::quantile(double fraction) const {
  if (total_ == 0) return 0.0;
  fraction = std::clamp(fraction, 0.0, 1.0);
  // Rank convention of summarize_percentiles: position q * (n - 1); the
  // bucket holding the sample at floor(position) answers.
  const double rank = fraction * static_cast<double>(total_ - 1);
  double cumulative = static_cast<double>(zero_count_);
  if (cumulative > rank) return 0.0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    cumulative += static_cast<double>(buckets_[b]);
    if (cumulative > rank) {
      // Clamp to the exact extremes so q=0 / q=1 return min/max verbatim.
      return std::clamp(bucket_value(base_index_ + static_cast<int>(b)), min_, max_);
    }
  }
  return max_;
}

PercentileSummary QuantileSketch::summary() const {
  PercentileSummary s;
  s.count = count();
  if (total_ == 0) return s;
  s.min = min_;
  s.max = max_;
  s.mean = mean();
  s.p25 = quantile(0.25);
  s.p50 = quantile(0.50);
  s.p75 = quantile(0.75);
  s.p90 = quantile(0.90);
  s.p99 = quantile(0.99);
  return s;
}

}  // namespace demuxabr
