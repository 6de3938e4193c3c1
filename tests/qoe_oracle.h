// Test oracle for compute_qoe(). compute_qoe reads its bitrate, switch and
// score terms from SessionTotals, which the log folds at record time; this
// recomputes the report independently by walking the selection slots of a
// full log and looking each track up in the ladder, so it needs a log that
// kept its selection vectors.
//
// The walk is exact only where every slot fills at most once, in order: a
// session without seeks. It counts every empty slot as a 0 kbps chunk, so
// its off_manifest_chunks also counts slots that were never downloaded;
// compute_qoe skips those, as check_compliance does.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "media/combination.h"
#include "media/ladder.h"
#include "sim/metrics.h"

namespace demuxabr {

/// The per-slot QoE walk over the selection vectors.
inline QoeReport walked_qoe(const SessionLog& log, const BitrateLadder& ladder,
                            const std::vector<AvCombination>* allowed = nullptr) {
  QoeReport report;
  report.startup_delay_s = log.startup_delay_s;
  double total_stall_s = 0.0;
  for (const StallEvent& s : log.stalls) total_stall_s += s.duration_s();
  report.total_stall_s = total_stall_s;
  report.stall_count = static_cast<int>(log.stalls.size());

  auto kbps_of = [&ladder](const std::string& id) {
    const TrackInfo* track = ladder.find(id);
    return track != nullptr ? track->avg_kbps : 0.0;
  };

  const std::size_t chunks =
      std::min(log.video_selection.size(), log.audio_selection.size());
  double video_sum = 0.0;
  double audio_sum = 0.0;
  double switch_cost = 0.0;
  for (std::size_t i = 0; i < chunks; ++i) {
    const double v = kbps_of(log.video_selection[i]);
    const double a = kbps_of(log.audio_selection[i]);
    video_sum += v;
    audio_sum += a;
    if (i > 0) {
      if (log.video_selection[i] != log.video_selection[i - 1]) {
        ++report.video_switches;
        switch_cost += std::abs(v - kbps_of(log.video_selection[i - 1]));
      }
      if (log.audio_selection[i] != log.audio_selection[i - 1]) {
        ++report.audio_switches;
        switch_cost += std::abs(a - kbps_of(log.audio_selection[i - 1]));
      }
      if (log.video_selection[i] != log.video_selection[i - 1] ||
          log.audio_selection[i] != log.audio_selection[i - 1]) {
        ++report.combo_switches;
      }
    }
    if (allowed != nullptr &&
        !contains_combination(*allowed, log.video_selection[i], log.audio_selection[i])) {
      ++report.off_manifest_chunks;
    }
  }
  if (chunks > 0) {
    report.avg_video_kbps = video_sum / static_cast<double>(chunks);
    report.avg_audio_kbps = audio_sum / static_cast<double>(chunks);
  }
  const double utility = video_sum + kQoeAudioWeight * audio_sum;
  const double penalty = kQoeStallPenaltyPerS * report.total_stall_s +
                         kQoeStartupPenaltyPerS * report.startup_delay_s +
                         kQoeSwitchPenaltyKbps * switch_cost;
  report.qoe_score =
      chunks > 0 ? (utility - penalty) / static_cast<double>(chunks) : 0.0;
  return report;
}

/// The log's count and sum accessors equal the walks over its record
/// vectors, and compute_qoe(log) equals walked_qoe bit for bit on every
/// field but off_manifest_chunks (no allowed set is passed, so both count 0
/// there). Needs a full log without seeks.
inline void expect_matches_walk(const SessionLog& log, const BitrateLadder& ladder) {
  ASSERT_FALSE(log.minimal);
  ASSERT_TRUE(log.seeks.empty());
  std::int64_t downloaded = 0;
  for (const DownloadRecord& d : log.downloads) downloaded += d.bytes;
  std::int64_t wasted = 0;
  for (const DownloadRecord& d : log.abandoned) wasted += d.bytes;
  EXPECT_EQ(log.download_count(), log.downloads.size());
  EXPECT_EQ(log.abandoned_count(), log.abandoned.size());
  EXPECT_EQ(log.stall_count(), log.stalls.size());
  EXPECT_EQ(log.total_downloaded_bytes(), downloaded);
  EXPECT_EQ(log.wasted_bytes(), wasted);

  const QoeReport got = compute_qoe(log);
  const QoeReport want = walked_qoe(log, ladder);
  EXPECT_EQ(got.startup_delay_s, want.startup_delay_s);
  EXPECT_EQ(got.total_stall_s, want.total_stall_s);
  EXPECT_EQ(got.stall_count, want.stall_count);
  EXPECT_EQ(got.avg_video_kbps, want.avg_video_kbps);
  EXPECT_EQ(got.avg_audio_kbps, want.avg_audio_kbps);
  EXPECT_EQ(got.video_switches, want.video_switches);
  EXPECT_EQ(got.audio_switches, want.audio_switches);
  EXPECT_EQ(got.combo_switches, want.combo_switches);
  EXPECT_EQ(got.qoe_score, want.qoe_score);
}

}  // namespace demuxabr
