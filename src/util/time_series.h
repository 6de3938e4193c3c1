// Time-stamped value series used throughout the session logs: buffer levels,
// bandwidth estimates, selected-track timelines (Figs 2-5 of the paper).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace demuxabr {

/// Ordered (time, value) samples. Times must be non-decreasing.
class TimeSeries {
 public:
  struct Point {
    double t;
    double value;
  };

  void add(double t, double value) { points_.push_back({t, value}); }
  void clear();

  /// Preallocate capacity for `points` samples (hot-path sessions reserve
  /// from the expected sample count so add() never reallocates mid-run).
  void reserve(std::size_t points);
  [[nodiscard]] std::size_t capacity() const { return points_.capacity(); }

  [[nodiscard]] bool empty() const { return points_.empty(); }
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] const Point& front() const { return points_.front(); }
  [[nodiscard]] const Point& back() const { return points_.back(); }

  /// Step interpolation: value of the latest point with point.t <= t.
  /// Returns fallback before the first sample.
  [[nodiscard]] double value_at(double t, double fallback = 0.0) const;

  /// Minimum / maximum sampled value (0 when empty).
  [[nodiscard]] double min_value() const;
  [[nodiscard]] double max_value() const;

  /// Resample onto a uniform grid [t0, t1] with the given step.
  [[nodiscard]] TimeSeries resample(double t0, double t1, double step) const;

  /// Render as a CSV fragment with the given column name.
  [[nodiscard]] std::string to_csv(const std::string& value_column) const;

 private:
  std::vector<Point> points_;
};

}  // namespace demuxabr
