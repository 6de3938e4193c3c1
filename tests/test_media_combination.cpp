#include "media/combination.h"

#include <gtest/gtest.h>

#include <map>

namespace demuxabr {
namespace {

TEST(Combinations, MakeCombinationSumsBitrates) {
  const BitrateLadder ladder = youtube_drama_ladder();
  const AvCombination combo = make_combination(ladder, "V3", "A2");
  EXPECT_DOUBLE_EQ(combo.avg_kbps, 362 + 196);
  EXPECT_DOUBLE_EQ(combo.peak_kbps, 641 + 199);
  EXPECT_DOUBLE_EQ(combo.declared_kbps, 473 + 196);
  EXPECT_EQ(combo.label(), "V3+A2");
}

TEST(Combinations, AllCombinationsCount) {
  const auto combos = all_combinations(youtube_drama_ladder());
  EXPECT_EQ(combos.size(), 18u);  // 6 video x 3 audio
}

// Table 2 of the paper, verbatim: all 18 combinations with their aggregate
// average and peak bitrates, in increasing peak order.
TEST(Combinations, Table2ValuesExact) {
  const auto combos = all_combinations(youtube_drama_ladder());
  struct Row {
    const char* label;
    double avg, peak;
  };
  const Row table2[] = {
      {"V1+A1", 239, 253},   {"V1+A2", 307, 318},   {"V2+A1", 374, 395},
      {"V2+A2", 442, 460},   {"V1+A3", 495, 510},   {"V2+A3", 630, 652},
      {"V3+A1", 490, 775},   {"V3+A2", 558, 840},   {"V3+A3", 746, 1032},
      {"V4+A1", 862, 1324},  {"V4+A2", 930, 1389},  {"V4+A3", 1118, 1581},
      {"V5+A1", 1549, 2516}, {"V5+A2", 1617, 2581}, {"V5+A3", 1805, 2773},
      {"V6+A1", 2856, 4581}, {"V6+A2", 2924, 4646}, {"V6+A3", 3112, 4838},
  };
  ASSERT_EQ(combos.size(), 18u);
  for (std::size_t i = 0; i < 18; ++i) {
    EXPECT_EQ(combos[i].label(), table2[i].label) << "row " << i;
    EXPECT_DOUBLE_EQ(combos[i].avg_kbps, table2[i].avg) << table2[i].label;
    EXPECT_DOUBLE_EQ(combos[i].peak_kbps, table2[i].peak) << table2[i].label;
  }
}

// Table 3: the curated H_sub subset.
TEST(Combinations, Table3ValuesExact) {
  const auto combos = curated_subset(youtube_drama_ladder());
  struct Row {
    const char* label;
    double avg, peak;
  };
  const Row table3[] = {
      {"V1+A1", 239, 253},  {"V2+A1", 374, 395},   {"V3+A2", 558, 840},
      {"V4+A2", 930, 1389}, {"V5+A3", 1805, 2773}, {"V6+A3", 3112, 4838},
  };
  ASSERT_EQ(combos.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(combos[i].label(), table3[i].label);
    EXPECT_DOUBLE_EQ(combos[i].avg_kbps, table3[i].avg);
    EXPECT_DOUBLE_EQ(combos[i].peak_kbps, table3[i].peak);
  }
}

TEST(Combinations, AllCombinationsSortedByPeak) {
  const auto combos = all_combinations(youtube_drama_ladder());
  for (std::size_t i = 1; i < combos.size(); ++i) {
    EXPECT_LE(combos[i - 1].peak_kbps, combos[i].peak_kbps);
  }
}

TEST(Combinations, ProportionalPairingCoversEveryVideoOnce) {
  const auto combos = proportional_pairing(youtube_drama_ladder());
  std::map<std::string, int> video_uses;
  for (const AvCombination& c : combos) ++video_uses[c.video_id];
  EXPECT_EQ(video_uses.size(), 6u);
  for (const auto& [id, uses] : video_uses) EXPECT_EQ(uses, 1) << id;
}

TEST(Combinations, ProportionalPairingAudioMonotone) {
  const BitrateLadder ladder = youtube_drama_ladder();
  const auto combos = proportional_pairing(ladder);
  std::size_t previous = 0;
  for (const AvCombination& c : combos) {
    const std::size_t rung = ladder.index_of(c.audio_id).value();
    EXPECT_GE(rung, previous);
    previous = rung;
  }
}

TEST(Combinations, ProportionalPairingMoreAudioThanVideo) {
  // 2 video tracks, 5 audio tracks: indices must stay in range.
  const BitrateLadder ladder = make_ladder({32, 64, 96, 128, 192}, {300, 900});
  const auto combos = proportional_pairing(ladder);
  ASSERT_EQ(combos.size(), 2u);
  EXPECT_EQ(combos[0].audio_id, "A1");
  EXPECT_EQ(combos[1].audio_id, "A3");  // floor(1*5/2)=2 -> third track
}

TEST(Combinations, FindAndContains) {
  const auto combos = curated_subset(youtube_drama_ladder());
  EXPECT_TRUE(contains_combination(combos, "V3", "A2"));
  EXPECT_FALSE(contains_combination(combos, "V3", "A3"));
  const auto found = find_combination(combos, "V5", "A3");
  ASSERT_TRUE(found.has_value());
  EXPECT_DOUBLE_EQ(found->peak_kbps, 2773);
  EXPECT_FALSE(find_combination(combos, "V1", "A3").has_value());
}

TEST(Combinations, EqualityIsByTrackIds) {
  const BitrateLadder ladder = youtube_drama_ladder();
  EXPECT_TRUE(make_combination(ladder, "V1", "A1") == make_combination(ladder, "V1", "A1"));
  EXPECT_FALSE(make_combination(ladder, "V1", "A1") == make_combination(ladder, "V1", "A2"));
}

class PairingShapeSweep
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(PairingShapeSweep, PairingIsTotalAndMonotone) {
  const auto [num_audio, num_video] = GetParam();
  std::vector<double> audio_kbps;
  std::vector<double> video_kbps;
  for (std::size_t i = 0; i < num_audio; ++i) {
    audio_kbps.push_back(32.0 * static_cast<double>(i + 1));
  }
  for (std::size_t i = 0; i < num_video; ++i) {
    video_kbps.push_back(200.0 * static_cast<double>(i + 1));
  }
  const BitrateLadder ladder = make_ladder(audio_kbps, video_kbps);
  const auto combos = proportional_pairing(ladder);
  ASSERT_EQ(combos.size(), num_video);
  std::size_t previous = 0;
  for (const AvCombination& c : combos) {
    const auto rung = ladder.index_of(c.audio_id);
    ASSERT_TRUE(rung.has_value());
    EXPECT_GE(*rung, previous);
    previous = *rung;
  }
  // Highest video pairs with the highest audio when counts divide evenly.
  if (num_video % num_audio == 0) {
    EXPECT_EQ(ladder.index_of(combos.back().audio_id).value(), num_audio - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PairingShapeSweep,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{1, 6},
                      std::pair<std::size_t, std::size_t>{3, 6},
                      std::pair<std::size_t, std::size_t>{2, 8},
                      std::pair<std::size_t, std::size_t>{4, 4},
                      std::pair<std::size_t, std::size_t>{6, 3}));

}  // namespace
}  // namespace demuxabr
