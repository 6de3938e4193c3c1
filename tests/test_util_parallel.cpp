// fan_out_ordered (util/parallel.h): the deterministic fan-out / ordered-
// merge helper behind run_replications, SweepRunner and the fleet shard
// runner. Results must come back indexed by submission order regardless of
// completion order or thread count, threads <= 1 must degenerate to the
// plain serial loop bit for bit, and a failing job must surface the same
// exception at every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel.h"

namespace demuxabr {
namespace {

TEST(FanOutOrdered, ResultsIndexedBySubmissionOrder) {
  // Later jobs finish earlier (reverse sleep): completion order is the
  // reverse of submission order, results must still line up by index.
  const auto job = [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2 * (8 - i)));
    return static_cast<int>(i * i);
  };
  for (const int threads : {1, 2, 8}) {
    const std::vector<int> results = fan_out_ordered(8, threads, job);
    ASSERT_EQ(results.size(), 8u) << "threads=" << threads;
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], static_cast<int>(i * i)) << "threads=" << threads;
    }
  }
}

TEST(FanOutOrdered, SerialParallelAndDefaultThreadCountAgree) {
  const auto job = [](std::size_t i) { return static_cast<double>(i) * 1.5 + 1.0; };
  const std::vector<double> serial = fan_out_ordered(16, 1, job);
  const std::vector<double> parallel = fan_out_ordered(16, 4, job);
  const std::vector<double> defaulted = fan_out_ordered(16, 0, job);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, defaulted);
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(FanOutOrdered, DegenerateCounts) {
  const auto job = [](std::size_t i) { return static_cast<int>(i) + 41; };
  EXPECT_TRUE(fan_out_ordered(0, 4, job).empty());
  const std::vector<int> one = fan_out_ordered(1, 4, job);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 41);
}

TEST(FanOutOrdered, JobsRunConcurrentlyWhenAsked) {
  // Four jobs that each wait until all four have started can only finish if
  // four workers actually run them at once.
  std::atomic<int> arrived{0};
  const auto job = [&arrived](std::size_t) {
    arrived.fetch_add(1);
    while (arrived.load() < 4) std::this_thread::yield();
    return 1;
  };
  const std::vector<int> results = fan_out_ordered(4, 4, job);
  ASSERT_EQ(results.size(), 4u);
  for (const int r : results) EXPECT_EQ(r, 1);
}

TEST(FanOutOrdered, LowestFailingIndexWinsAndEveryJobRuns) {
  // Jobs 3 and 9 throw. Every thread count reports job 3; the serial loop
  // stops there, the workers finish the batch before rethrowing.
  for (const int threads : {1, 2, 8}) {
    std::atomic<int> ran{0};
    const auto job = [&ran](std::size_t i) {
      ran.fetch_add(1);
      if (i == 3 || i == 9) throw std::runtime_error("job " + std::to_string(i));
      return static_cast<int>(i);
    };
    try {
      (void)fan_out_ordered(12, threads, job);
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 3") << "threads=" << threads;
    }
    EXPECT_EQ(ran.load(), threads == 1 ? 4 : 12) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace demuxabr
