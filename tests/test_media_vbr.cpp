#include "media/vbr_model.h"

#include <gtest/gtest.h>

#include "media/ladder.h"

namespace demuxabr {
namespace {

TEST(VbrModel, MeanMatchesTrackAverage) {
  const BitrateLadder ladder = youtube_drama_ladder();
  for (const TrackInfo& track : ladder.video()) {
    const auto chunks = generate_chunks(track, 75, 4.0);
    const ChunkStats stats = measure_chunks(chunks);
    EXPECT_NEAR(stats.avg_kbps, track.avg_kbps, track.avg_kbps * 0.005) << track.id;
  }
}

TEST(VbrModel, PeakMatchesTrackPeak) {
  const BitrateLadder ladder = youtube_drama_ladder();
  for (const TrackInfo& track : ladder.video()) {
    const auto chunks = generate_chunks(track, 75, 4.0);
    const ChunkStats stats = measure_chunks(chunks);
    EXPECT_NEAR(stats.peak_kbps, track.peak_kbps, track.peak_kbps * 0.005) << track.id;
  }
}

TEST(VbrModel, NoChunkExceedsPeak) {
  const BitrateLadder ladder = youtube_drama_ladder();
  for (const auto* list : {&ladder.audio(), &ladder.video()}) {
    for (const TrackInfo& track : *list) {
      for (const ChunkInfo& chunk : generate_chunks(track, 75, 4.0)) {
        EXPECT_LE(chunk.bitrate_kbps(), track.peak_kbps * 1.001) << track.id;
      }
    }
  }
}

TEST(VbrModel, NoChunkBelowFloor) {
  const TrackInfo track = youtube_drama_ladder().video()[3];  // V4, bursty
  VbrModelParams params;
  for (const ChunkInfo& chunk : generate_chunks(track, 200, 4.0, params)) {
    EXPECT_GE(chunk.bitrate_kbps(), track.avg_kbps * VbrModelParams::kMinRatio * 0.999);
  }
}

TEST(VbrModel, AudioIsNearConstantBitrate) {
  const TrackInfo track = youtube_drama_ladder().audio()[0];
  const auto chunks = generate_chunks(track, 75, 4.0);
  const ChunkStats stats = measure_chunks(chunks);
  // Audio sigma is tiny: min within a few percent of avg.
  EXPECT_GT(stats.min_kbps, track.avg_kbps * 0.9);
}

TEST(VbrModel, DeterministicForSameSeed) {
  const TrackInfo track = youtube_drama_ladder().video()[2];
  const auto a = generate_chunks(track, 75, 4.0);
  const auto b = generate_chunks(track, 75, 4.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].size_bytes, b[i].size_bytes);
  }
}

TEST(VbrModel, DifferentSeedsProduceDifferentChunks) {
  const TrackInfo track = youtube_drama_ladder().video()[2];
  VbrModelParams p1;
  VbrModelParams p2;
  p2.seed = p1.seed + 1;
  const auto a = generate_chunks(track, 75, 4.0, p1);
  const auto b = generate_chunks(track, 75, 4.0, p2);
  int differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size_bytes != b[i].size_bytes) ++differing;
  }
  EXPECT_GT(differing, 50);
}

TEST(VbrModel, TracksAreDecorrelated) {
  const BitrateLadder ladder = youtube_drama_ladder();
  const auto v3 = generate_chunks(*ladder.find("V3"), 75, 4.0);
  const auto v4 = generate_chunks(*ladder.find("V4"), 75, 4.0);
  // If tracks shared a random stream, per-chunk ratios would be constant.
  int distinct_ratios = 0;
  const double first_ratio =
      static_cast<double>(v4[0].size_bytes) / static_cast<double>(v3[0].size_bytes);
  for (std::size_t i = 1; i < v3.size(); ++i) {
    const double r =
        static_cast<double>(v4[i].size_bytes) / static_cast<double>(v3[i].size_bytes);
    if (std::abs(r - first_ratio) > 0.05) ++distinct_ratios;
  }
  EXPECT_GT(distinct_ratios, 30);
}

TEST(VbrModel, SingleChunkDegeneratesToAverage) {
  const TrackInfo track = youtube_drama_ladder().video()[0];
  const auto chunks = generate_chunks(track, 1, 4.0);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_NEAR(chunks[0].bitrate_kbps(), track.avg_kbps, 1.0);
}

TEST(VbrModel, ChunkDurationPropagates) {
  const TrackInfo track = youtube_drama_ladder().audio()[0];
  for (const ChunkInfo& chunk : generate_chunks(track, 10, 2.0)) {
    EXPECT_DOUBLE_EQ(chunk.duration_s, 2.0);
  }
}

TEST(MeasureChunks, EmptyListIsZero) {
  const ChunkStats stats = measure_chunks({});
  EXPECT_DOUBLE_EQ(stats.avg_kbps, 0.0);
  EXPECT_EQ(stats.total_bytes, 0);
}

TEST(ChunkInfo, BitrateComputation) {
  ChunkInfo chunk;
  chunk.duration_s = 4.0;
  chunk.size_bytes = 500 * 500;  // 250000 B = 2,000,000 bits over 4 s
  EXPECT_DOUBLE_EQ(chunk.bitrate_kbps(), 500.0);
}

class VbrSigmaSweep : public ::testing::TestWithParam<double> {};

TEST_P(VbrSigmaSweep, InvariantsHoldAcrossSigmas) {
  TrackInfo track = youtube_drama_ladder().video()[4];  // V5
  VbrModelParams params;
  params.video_sigma = GetParam();
  const auto chunks = generate_chunks(track, 150, 4.0, params);
  const ChunkStats stats = measure_chunks(chunks);
  EXPECT_NEAR(stats.avg_kbps, track.avg_kbps, track.avg_kbps * 0.01);
  EXPECT_LE(stats.peak_kbps, track.peak_kbps * 1.001);
  for (const ChunkInfo& c : chunks) EXPECT_GT(c.size_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, VbrSigmaSweep,
                         ::testing::Values(0.05, 0.2, 0.35, 0.5));

class VbrSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VbrSeedSweep, MeanAndPeakStableAcrossSeeds) {
  TrackInfo track = youtube_drama_ladder().video()[3];
  VbrModelParams params;
  params.seed = GetParam();
  const ChunkStats stats = measure_chunks(generate_chunks(track, 75, 4.0, params));
  EXPECT_NEAR(stats.avg_kbps, track.avg_kbps, track.avg_kbps * 0.01);
  EXPECT_NEAR(stats.peak_kbps, track.peak_kbps, track.peak_kbps * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VbrSeedSweep,
                         ::testing::Values(1u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace demuxabr
