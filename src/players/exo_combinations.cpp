#include "players/exo_combinations.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace demuxabr {
namespace {

/// Normalized log-midpoint switch points for one renderer's bitrates.
std::vector<double> switch_points(const std::vector<double>& kbps) {
  std::vector<double> points;
  if (kbps.size() < 2) return points;
  std::vector<double> logs;
  logs.reserve(kbps.size());
  for (double k : kbps) {
    assert(k > 0.0);
    logs.push_back(std::log(k));
  }
  const double total = logs.back() - logs.front();
  points.reserve(kbps.size() - 1);
  for (std::size_t k = 0; k + 1 < logs.size(); ++k) {
    const double midpoint = (logs[k] + logs[k + 1]) / 2.0;
    points.push_back(total == 0.0 ? 1.0 : (midpoint - logs.front()) / total);
  }
  return points;
}

struct Upgrade {
  double point;
  bool is_video;
};

/// Declared bitrates of a track list, in its order.
template <class Track>
std::vector<double> declared_rates(const std::vector<Track>& tracks) {
  std::vector<double> kbps;
  for (const Track& t : tracks) kbps.push_back(t.declared_kbps);
  return kbps;
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> exo_allocation_path(
    const std::vector<double>& video_kbps, const std::vector<double>& audio_kbps) {
  assert(!video_kbps.empty() && !audio_kbps.empty());
  assert(std::is_sorted(video_kbps.begin(), video_kbps.end()));
  assert(std::is_sorted(audio_kbps.begin(), audio_kbps.end()));

  std::vector<Upgrade> upgrades;
  for (double p : switch_points(video_kbps)) upgrades.push_back({p, true});
  for (double p : switch_points(audio_kbps)) upgrades.push_back({p, false});
  // Ascending switch points; ties upgrade video first (renderer order).
  std::stable_sort(upgrades.begin(), upgrades.end(),
                   [](const Upgrade& a, const Upgrade& b) {
                     if (a.point != b.point) return a.point < b.point;
                     return a.is_video && !b.is_video;
                   });

  std::vector<std::pair<std::size_t, std::size_t>> path;
  std::size_t video = 0;
  std::size_t audio = 0;
  path.emplace_back(video, audio);
  for (const Upgrade& upgrade : upgrades) {
    if (upgrade.is_video) {
      ++video;
    } else {
      ++audio;
    }
    path.emplace_back(video, audio);
  }
  assert(video == video_kbps.size() - 1 && audio == audio_kbps.size() - 1);
  return path;
}

std::vector<AvCombination> exo_predetermined_combinations(const BitrateLadder& ladder) {
  std::vector<AvCombination> combos;
  for (const auto& [v, a] :
       exo_allocation_path(declared_rates(ladder.video()), declared_rates(ladder.audio()))) {
    combos.push_back(
        make_combination(ladder, ladder.video()[v].id, ladder.audio()[a].id));
  }
  return combos;
}

std::vector<ComboView> exo_predetermined_combinations(const ManifestView& view) {
  // Manifest order may differ from bitrate order.
  const std::vector<TrackView> video = view.tracks_by_rate(MediaType::kVideo);
  const std::vector<TrackView> audio = view.tracks_by_rate(MediaType::kAudio);
  std::vector<ComboView> combos;
  for (const auto& [v, a] : exo_allocation_path(declared_rates(video), declared_rates(audio))) {
    combos.push_back(pair_combo(video[v], audio[a]));
  }
  return combos;
}

}  // namespace demuxabr
