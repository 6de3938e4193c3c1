#include "players/bola.h"

#include <gtest/gtest.h>

#include <vector>

namespace demuxabr {
namespace {

const std::vector<double> kVideoLadder{111, 246, 473, 914, 1852, 3746};

TEST(Bola, UtilitiesNormalizedToOneAtLowest) {
  Bola bola(kVideoLadder, 12.0);
  EXPECT_DOUBLE_EQ(bola.utilities().front(), 1.0);
  for (std::size_t i = 1; i < bola.utilities().size(); ++i) {
    EXPECT_GT(bola.utilities()[i], bola.utilities()[i - 1]);
  }
}

TEST(Bola, BufferTargetIncludesPerLevelMargin) {
  Bola bola(kVideoLadder, 12.0);
  // max(12, 10 + 2*6) = 22 for six levels.
  EXPECT_DOUBLE_EQ(bola.buffer_target_s(), 22.0);
  Bola audio({128, 196, 384}, 12.0);
  EXPECT_DOUBLE_EQ(audio.buffer_target_s(), 16.0);
  Bola wide(kVideoLadder, 40.0);
  EXPECT_DOUBLE_EQ(wide.buffer_target_s(), 40.0);
}

TEST(Bola, EmptyBufferChoosesLowest) {
  Bola bola(kVideoLadder, 12.0);
  EXPECT_EQ(bola.choose(0.0), 0u);
}

TEST(Bola, DesignInvariant_LowestAtMinimumBuffer) {
  // dash.js derives Vp/gp so the lowest track is preferred at 10 s...
  Bola bola(kVideoLadder, 12.0);
  EXPECT_EQ(bola.choose(10.0), 0u);
}

TEST(Bola, DesignInvariant_HighestAtBufferTarget) {
  // ...and the highest at the buffer target.
  Bola bola(kVideoLadder, 12.0);
  EXPECT_EQ(bola.choose(bola.buffer_target_s()), kVideoLadder.size() - 1);
}

TEST(Bola, ChoiceIsMonotoneInBuffer) {
  Bola bola(kVideoLadder, 12.0);
  std::size_t previous = 0;
  for (double buffer = 0.0; buffer <= 25.0; buffer += 0.25) {
    const std::size_t choice = bola.choose(buffer);
    EXPECT_GE(choice, previous) << "buffer " << buffer;
    previous = choice;
  }
}

TEST(Bola, SingleTrackAlwaysChoosesIt) {
  Bola bola({500.0}, 12.0);
  EXPECT_EQ(bola.choose(0.0), 0u);
  EXPECT_EQ(bola.choose(50.0), 0u);
}

TEST(Bola, AudioLadderCrossoverNearSixteenSeconds) {
  // For the Table 1 audio ladder, BOLA's A2 -> A3 crossover sits around
  // 16.6 s of buffer (the analysis behind dash.js's Fig 5 audio behaviour).
  Bola bola({128, 196, 384}, 20.0);
  EXPECT_LT(bola.choose(15.0), 2u);
  EXPECT_EQ(bola.choose(18.0), 2u);
}

class BolaLadderSweep : public ::testing::TestWithParam<double> {};

TEST_P(BolaLadderSweep, ChoiceAlwaysValidAndMonotone) {
  const double stable = GetParam();
  Bola bola(kVideoLadder, stable);
  std::size_t previous = 0;
  for (double buffer = 0.0; buffer <= bola.buffer_target_s() + 10.0; buffer += 0.5) {
    const std::size_t choice = bola.choose(buffer);
    ASSERT_LT(choice, kVideoLadder.size());
    EXPECT_GE(choice, previous);
    previous = choice;
  }
  EXPECT_EQ(previous, kVideoLadder.size() - 1);
}

INSTANTIATE_TEST_SUITE_P(StableBuffers, BolaLadderSweep,
                         ::testing::Values(12.0, 20.0, 30.0, 60.0));

}  // namespace
}  // namespace demuxabr
