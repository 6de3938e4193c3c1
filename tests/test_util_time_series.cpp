#include "util/time_series.h"

#include <gtest/gtest.h>

namespace demuxabr {
namespace {

TimeSeries make_series() {
  TimeSeries s;
  s.add(0.0, 10.0);
  s.add(5.0, 20.0);
  s.add(10.0, 5.0);
  return s;
}

TEST(TimeSeries, ValueAtUsesStepInterpolation) {
  const TimeSeries s = make_series();
  EXPECT_DOUBLE_EQ(s.value_at(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.value_at(4.999), 10.0);
  EXPECT_DOUBLE_EQ(s.value_at(5.0), 20.0);
  EXPECT_DOUBLE_EQ(s.value_at(100.0), 5.0);
}

TEST(TimeSeries, ValueBeforeFirstSampleUsesFallback) {
  const TimeSeries s = make_series();
  EXPECT_DOUBLE_EQ(s.value_at(-1.0, 42.0), 42.0);
  TimeSeries empty;
  EXPECT_DOUBLE_EQ(empty.value_at(3.0, 7.0), 7.0);
}

TEST(TimeSeries, MinMaxAndChanges) {
  const TimeSeries s = make_series();
  EXPECT_DOUBLE_EQ(s.min_value(), 5.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 20.0);
}

TEST(TimeSeries, ResampleOntoGrid) {
  const TimeSeries s = make_series();
  const TimeSeries grid = s.resample(0.0, 10.0, 2.5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.points()[0].value, 10.0);
  EXPECT_DOUBLE_EQ(grid.points()[2].value, 20.0);  // t = 5.0
  EXPECT_DOUBLE_EQ(grid.points()[4].value, 5.0);   // t = 10.0
}

TEST(TimeSeries, CsvRendering) {
  TimeSeries s;
  s.add(0.0, 1.0);
  s.add(1.5, 2.25);
  const std::string csv = s.to_csv("level");
  EXPECT_EQ(csv, "t,level\n0.000,1.000\n1.500,2.250\n");
}

TEST(TimeSeries, EmptyBehaviour) {
  TimeSeries s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.min_value(), 0.0);
  EXPECT_DOUBLE_EQ(s.max_value(), 0.0);
}

}  // namespace
}  // namespace demuxabr
