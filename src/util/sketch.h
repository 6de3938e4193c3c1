// QuantileSketch: a mergeable streaming percentile sketch with a relative
// accuracy guarantee (DDSketch-style log-spaced buckets).
//
// Values map to geometric buckets i = ceil(log_gamma(x)) with
// gamma = (1 + alpha) / (1 - alpha); every sample in bucket i lies in
// (gamma^(i-1), gamma^i], and the bucket's representative value
// 2 * gamma^i / (gamma + 1) (the interval midpoint in log space) is within
// relative error alpha of any of them. quantile(q) therefore returns a value
// within alpha * x of the exact order statistic x at rank q * (count - 1) —
// the same rank convention as util/stats.h summarize_percentiles, minus the
// linear interpolation (a sketch cannot see gaps between neighbouring
// samples).
//
// Merging adds integer bucket counts, so merge order is irrelevant: K
// per-shard sketches merged in any order equal the sketch of the pooled
// stream. That is the property the streaming fleet path leans on — shard
// results are combined in shard-id order but would be byte-identical in any
// other (DESIGN.md §10).
//
// Non-positive and sub-epsilon values share an exact zero bucket (stall
// ratios and startup delays are mostly zero in healthy fleets); count, sum,
// min and max are tracked exactly alongside the buckets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/stats.h"

namespace demuxabr {

class QuantileSketch {
 public:
  /// `relative_error` (alpha) in (0, 1): quantile answers are within
  /// alpha * x of the exact order statistic x. Memory is one uint64 bucket
  /// per log_gamma step of the observed dynamic range (~1400 buckets for
  /// 9 decades at alpha = 0.01).
  explicit QuantileSketch(double relative_error = 0.01);

  void add(double x);

  /// Pool another sketch into this one. Both must have been built with the
  /// same relative_error (asserted): the bucket grids must line up.
  void merge(const QuantileSketch& other);

  [[nodiscard]] std::size_t count() const { return static_cast<std::size_t>(total_); }
  [[nodiscard]] bool empty() const { return total_ == 0; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return total_ > 0 ? sum_ / static_cast<double>(total_) : 0.0; }
  [[nodiscard]] double min() const { return total_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return total_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double relative_error() const { return alpha_; }

  /// Value within alpha (relatively) of the exact order statistic at rank
  /// `fraction` * (count - 1); 0.0 when empty. fraction in [0, 1].
  [[nodiscard]] double quantile(double fraction) const;

  /// The fleet-report summary shape: count/min/max/mean exact, percentiles
  /// sketch-approximate.
  [[nodiscard]] PercentileSummary summary() const;

  /// Resident bucket count (memory diagnostics).
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

 private:
  /// Values at or below this land in the exact zero bucket.
  static constexpr double kZeroEps = 1e-9;

  [[nodiscard]] int bucket_index(double x) const;
  [[nodiscard]] double bucket_value(int index) const;
  void bump(int index, std::uint64_t by);

  double alpha_;
  double gamma_;
  double inv_log_gamma_;
  std::uint64_t total_ = 0;       ///< including zero-bucket samples
  std::uint64_t zero_count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  int base_index_ = 0;            ///< logical index of buckets_[0]
  std::vector<std::uint64_t> buckets_;
};

}  // namespace demuxabr
