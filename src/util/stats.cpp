#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace demuxabr {

HalfLifeEwma::HalfLifeEwma(double half_life) : half_life_(half_life) {
  assert(half_life > 0.0);
}

void HalfLifeEwma::add(double weight, double x) {
  if (weight <= 0.0) return;
  const double adjusted_alpha = std::pow(0.5, weight / half_life_);
  estimate_ = x * (1.0 - adjusted_alpha) + adjusted_alpha * estimate_;
  total_weight_ += weight;
  estimate_stale_ = true;
}

void HalfLifeEwma::reset() {
  estimate_ = 0.0;
  total_weight_ = 0.0;
  estimate_stale_ = true;
}

double HalfLifeEwma::estimate() const {
  if (total_weight_ <= 0.0) return 0.0;
  if (estimate_stale_) {
    const double zero_factor = 1.0 - std::pow(0.5, total_weight_ / half_life_);
    cached_estimate_ = estimate_ / zero_factor;
    estimate_stale_ = false;
  }
  return cached_estimate_;
}

SlidingPercentile::SlidingPercentile(double max_weight) : max_weight_(max_weight) {
  assert(max_weight > 0.0);
}

void SlidingPercentile::push_back(const Sample& sample) {
  if (count_ == ring_.size()) {
    const std::size_t old_capacity = ring_.size();
    std::vector<Sample> grown(std::max<std::size_t>(8, old_capacity * 2));
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = ring_[(head_ + i) & (old_capacity - 1)];
    }
    ring_.swap(grown);
    head_ = 0;
  }
  ring_[(head_ + count_) & (ring_.size() - 1)] = sample;
  ++count_;
}

void SlidingPercentile::pop_front() {
  head_ = (head_ + 1) & (ring_.size() - 1);
  --count_;
}

void SlidingPercentile::add(double weight, double value) {
  if (weight <= 0.0) return;
  push_back({weight, value});
  total_weight_ += weight;
  while (total_weight_ > max_weight_ && count_ > 1) {
    total_weight_ -= ring_[head_].weight;
    pop_front();
  }
  sorted_stale_ = true;
  result_stale_ = true;
}

double SlidingPercentile::percentile(double fraction, double fallback) const {
  if (count_ == 0) return fallback;
  if (!result_stale_ && fraction == cached_fraction_) return cached_result_;
  if (sorted_stale_) {
    // Materialize in insertion order before sorting — the exact input
    // sequence the historical per-query copy sorted, so the (unstable) sort
    // produces the identical permutation.
    sorted_.clear();
    for (std::size_t i = 0; i < count_; ++i) {
      sorted_.push_back(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    std::sort(sorted_.begin(), sorted_.end(),
              [](const Sample& a, const Sample& b) { return a.value < b.value; });
    sorted_stale_ = false;
  }
  const double target = std::clamp(fraction, 0.0, 1.0) * total_weight_;
  double acc = 0.0;
  double result = sorted_.back().value;
  for (const Sample& s : sorted_) {
    acc += s.weight;
    // Epsilon guards the acc == target case against accumulation error.
    if (acc + 1e-9 * total_weight_ >= target) {
      result = s.value;
      break;
    }
  }
  cached_fraction_ = fraction;
  cached_result_ = result;
  result_stale_ = false;
  return result;
}

void SlidingPercentile::clear() {
  head_ = 0;
  count_ = 0;
  total_weight_ = 0.0;
  sorted_stale_ = true;
  result_stale_ = true;
}

SlidingWindow::SlidingWindow(std::size_t capacity)
    : capacity_(capacity), ring_(capacity) {
  assert(capacity > 0);
}

void SlidingWindow::add(double x) {
  if (count_ == capacity_) {
    ring_[head_] = x;
    head_ = (head_ + 1) % capacity_;
  } else {
    ring_[(head_ + count_) % capacity_] = x;
    ++count_;
  }
  mean_stale_ = true;
}

void SlidingWindow::clear() {
  head_ = 0;
  count_ = 0;
  mean_stale_ = true;
}

double SlidingWindow::mean() const {
  if (count_ == 0) return 0.0;
  if (mean_stale_) {
    double sum = 0.0;
    for (std::size_t i = 0; i < count_; ++i) sum += ring_[(head_ + i) % capacity_];
    cached_mean_ = sum / static_cast<double>(count_);
    mean_stale_ = false;
  }
  return cached_mean_;
}

double jain_fairness(double sum, double sq_sum, std::size_t n) {
  if (n == 0) return 0.0;
  // All-zero allocations are equal allocations: call that fair rather than
  // dividing by zero.
  if (sq_sum <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(n) * sq_sum);
}

namespace {

/// Percentile of an already-sorted, non-empty sample: linear interpolation
/// at rank fraction · (n − 1).
double sorted_percentile(const std::vector<double>& sorted, double fraction) {
  const double pos = std::clamp(fraction, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

PercentileSummary summarize_percentiles(std::vector<double> values) {
  PercentileSummary summary;
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.count = values.size();
  summary.min = values.front();
  summary.max = values.back();
  summary.p25 = sorted_percentile(values, 0.25);
  summary.p50 = sorted_percentile(values, 0.50);
  summary.p75 = sorted_percentile(values, 0.75);
  summary.p90 = sorted_percentile(values, 0.90);
  summary.p99 = sorted_percentile(values, 0.99);
  double sum = 0.0;
  for (double x : values) sum += x;
  summary.mean = sum / static_cast<double>(values.size());
  return summary;
}

}  // namespace demuxabr
