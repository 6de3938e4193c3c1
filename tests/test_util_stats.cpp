#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace demuxabr {
namespace {

TEST(HalfLifeEwma, BiasCorrectedEstimateMatchesConstantInput) {
  HalfLifeEwma ewma(2.0);
  ewma.add(0.125, 500.0);
  // With bias correction, a single constant-valued sample already reports
  // that value (this is how Shaka's estimator behaves).
  EXPECT_NEAR(ewma.estimate(), 500.0, 1e-9);
  for (int i = 0; i < 100; ++i) ewma.add(0.125, 500.0);
  EXPECT_NEAR(ewma.estimate(), 500.0, 1e-9);
}

TEST(HalfLifeEwma, HalfLifeSemantics) {
  HalfLifeEwma ewma(2.0);
  // Saturate at 1000, then feed 0 for exactly one half-life of weight:
  // the *uncorrected* mass halves; the estimate lands between.
  for (int i = 0; i < 400; ++i) ewma.add(0.125, 1000.0);
  ewma.add(2.0, 0.0);
  EXPECT_LT(ewma.estimate(), 600.0);
  EXPECT_GT(ewma.estimate(), 300.0);
}

TEST(HalfLifeEwma, IgnoresNonPositiveWeight) {
  HalfLifeEwma ewma(2.0);
  ewma.add(0.0, 1000.0);
  ewma.add(-1.0, 1000.0);
  EXPECT_DOUBLE_EQ(ewma.total_weight(), 0.0);
}

TEST(HalfLifeEwma, RecencyWeighting) {
  HalfLifeEwma ewma(1.0);
  for (int i = 0; i < 10; ++i) ewma.add(1.0, 100.0);
  for (int i = 0; i < 10; ++i) ewma.add(1.0, 900.0);
  // Recent 900s dominate a 1 s half-life.
  EXPECT_GT(ewma.estimate(), 850.0);
}

TEST(SlidingPercentile, MedianOfEqualWeights) {
  SlidingPercentile sp(100.0);
  for (double v : {10.0, 20.0, 30.0, 40.0, 50.0}) sp.add(1.0, v);
  EXPECT_DOUBLE_EQ(sp.percentile(0.5, -1.0), 30.0);
  EXPECT_DOUBLE_EQ(sp.percentile(0.0, -1.0), 10.0);
  EXPECT_DOUBLE_EQ(sp.percentile(1.0, -1.0), 50.0);
}

TEST(SlidingPercentile, FallbackWhenEmpty) {
  SlidingPercentile sp(10.0);
  EXPECT_DOUBLE_EQ(sp.percentile(0.5, 1234.0), 1234.0);
}

TEST(SlidingPercentile, EvictsOldestWhenOverWeight) {
  SlidingPercentile sp(2.0);
  sp.add(1.0, 100.0);
  sp.add(1.0, 200.0);
  sp.add(1.0, 300.0);  // evicts the 100 sample
  EXPECT_DOUBLE_EQ(sp.percentile(0.0, -1.0), 200.0);
}

TEST(SlidingPercentile, WeightSkewsPercentile) {
  SlidingPercentile sp(100.0);
  sp.add(9.0, 100.0);
  sp.add(1.0, 1000.0);
  // 90% of the weight sits at 100.
  EXPECT_DOUBLE_EQ(sp.percentile(0.5, -1.0), 100.0);
  EXPECT_DOUBLE_EQ(sp.percentile(0.99, -1.0), 1000.0);
}

TEST(SlidingWindow, MeanAndHarmonicMean) {
  SlidingWindow window(4);
  window.add(100.0);
  window.add(400.0);
  EXPECT_DOUBLE_EQ(window.mean(), 250.0);
}

TEST(SlidingWindow, EvictsBeyondCapacity) {
  SlidingWindow window(2);
  window.add(1.0);
  window.add(2.0);
  window.add(3.0);
  EXPECT_EQ(window.size(), 2u);
  EXPECT_DOUBLE_EQ(window.mean(), 2.5);
}

TEST(SlidingWindow, EmptyReturnsZero) {
  SlidingWindow window(4);
  EXPECT_DOUBLE_EQ(window.mean(), 0.0);
}

/// Jain's index of `values`: their moment sums, accumulated in order.
double jain_of(const std::vector<double>& values) {
  double sum = 0.0;
  double sq_sum = 0.0;
  for (const double x : values) {
    sum += x;
    sq_sum += x * x;
  }
  return jain_fairness(sum, sq_sum, values.size());
}

TEST(JainFairness, PerfectFairnessIsOne) {
  EXPECT_DOUBLE_EQ(jain_of({500.0, 500.0, 500.0, 500.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_of({1.0}), 1.0);
  // All-zero allocations are equal allocations.
  EXPECT_DOUBLE_EQ(jain_of({0.0, 0.0, 0.0}), 1.0);
}

TEST(JainFairness, SingleHogIsOneOverN) {
  EXPECT_DOUBLE_EQ(jain_of({1000.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(jain_of({7.0, 0.0}), 0.5);
}

TEST(JainFairness, KnownIntermediateValue) {
  // (1+2+3)^2 / (3 * (1+4+9)) = 36/42
  EXPECT_NEAR(jain_of({1.0, 2.0, 3.0}), 36.0 / 42.0, 1e-12);
}

TEST(JainFairness, EmptyIsZero) { EXPECT_DOUBLE_EQ(jain_fairness(0.0, 0.0, 0), 0.0); }

TEST(JainFairness, ScaleInvariant) {
  const std::vector<double> base = {100.0, 250.0, 400.0, 800.0};
  std::vector<double> scaled = base;
  for (double& x : scaled) x *= 37.5;
  EXPECT_NEAR(jain_of(base), jain_of(scaled), 1e-12);
}

TEST(PercentileSummary, EmptyIsAllZero) {
  const PercentileSummary s = summarize_percentiles({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(PercentileSummary, MatchesPercentileOf) {
  const std::vector<double> values = {9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0, 6.0};
  const PercentileSummary s = summarize_percentiles(values);
  EXPECT_EQ(s.count, values.size());
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  // Rank fraction · 8 over the sorted 1..9, interpolated between neighbours.
  EXPECT_DOUBLE_EQ(s.p25, 3.0);
  EXPECT_DOUBLE_EQ(s.p50, 5.0);
  EXPECT_DOUBLE_EQ(s.p75, 7.0);
  EXPECT_DOUBLE_EQ(s.p90, 8.2);
  EXPECT_DOUBLE_EQ(s.p99, 8.92);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
}

TEST(PercentileSummary, SingleSample) {
  const PercentileSummary s = summarize_percentiles({42.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 42.0);
  EXPECT_DOUBLE_EQ(s.p25, 42.0);
  EXPECT_DOUBLE_EQ(s.p50, 42.0);
  EXPECT_DOUBLE_EQ(s.p99, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
}

class HalfLifeSweep : public ::testing::TestWithParam<double> {};

TEST_P(HalfLifeSweep, ConstantInputIsFixedPoint) {
  HalfLifeEwma ewma(GetParam());
  for (int i = 0; i < 50; ++i) ewma.add(0.5, 777.0);
  EXPECT_NEAR(ewma.estimate(), 777.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(HalfLives, HalfLifeSweep,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 10.0));

}  // namespace
}  // namespace demuxabr
