#include "util/time_series.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/strings.h"

namespace demuxabr {

void TimeSeries::clear() { points_.clear(); }

void TimeSeries::reserve(std::size_t points) { points_.reserve(points); }

double TimeSeries::value_at(double t, double fallback) const {
  if (points_.empty() || t < points_.front().t) return fallback;
  // Binary search for the last point with point.t <= t.
  auto it = std::upper_bound(points_.begin(), points_.end(), t,
                             [](double x, const Point& p) { return x < p.t; });
  return std::prev(it)->value;
}

double TimeSeries::min_value() const {
  if (points_.empty()) return 0.0;
  double m = points_.front().value;
  for (const Point& p : points_) m = std::min(m, p.value);
  return m;
}

double TimeSeries::max_value() const {
  if (points_.empty()) return 0.0;
  double m = points_.front().value;
  for (const Point& p : points_) m = std::max(m, p.value);
  return m;
}

TimeSeries TimeSeries::resample(double t0, double t1, double step) const {
  assert(step > 0.0);
  TimeSeries out;
  for (double t = t0; t <= t1 + 1e-9; t += step) {
    out.add(t, value_at(t, points_.empty() ? 0.0 : points_.front().value));
  }
  return out;
}

std::string TimeSeries::to_csv(const std::string& value_column) const {
  std::ostringstream out;
  out << "t," << value_column << '\n';
  for (const Point& p : points_) {
    out << format("%.3f,%.3f", p.t, p.value) << '\n';
  }
  return out.str();
}

}  // namespace demuxabr
