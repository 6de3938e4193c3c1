// Audio/video combinations (HLS "variants"): pairs of one video track and one
// audio track with aggregate bandwidth figures. Reproduces Tables 2 and 3 of
// the paper and provides the curated subset used by manifest H_sub.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "media/ladder.h"

namespace demuxabr {

/// One allowed (video, audio) pairing with aggregate bitrates in kbps.
struct AvCombination {
  std::string video_id;
  std::string audio_id;
  double avg_kbps = 0.0;       ///< sum of track average bitrates
  double peak_kbps = 0.0;      ///< sum of track peak bitrates (HLS BANDWIDTH)
  double declared_kbps = 0.0;  ///< sum of track declared bitrates (DASH)

  [[nodiscard]] std::string label() const { return video_id + "+" + audio_id; }
  bool operator==(const AvCombination& other) const {
    return video_id == other.video_id && audio_id == other.audio_id;
  }
};

/// Build the combination of a specific video and audio track of the ladder.
/// Both ids must exist.
AvCombination make_combination(const BitrateLadder& ladder,
                               const std::string& video_id,
                               const std::string& audio_id);

/// All |V| x |A| combinations, sorted by increasing aggregate peak bitrate
/// (Table 2 order; used by manifest H_all).
std::vector<AvCombination> all_combinations(const BitrateLadder& ladder);

/// The curated subset the paper uses for H_sub (Table 3): each video track is
/// paired with one audio track, low-with-low / high-with-high, splitting the
/// video rungs evenly across the audio rungs:
///   V1+A1, V2+A1, V3+A2, V4+A2, V5+A3, V6+A3 for the Table 1 ladder.
std::vector<AvCombination> curated_subset(const BitrateLadder& ladder);

/// Generic curation: pair video rung i with audio rung floor(i * A / V).
std::vector<AvCombination> proportional_pairing(const BitrateLadder& ladder);

/// Find a combination by ids. Returns nullopt when not present.
std::optional<AvCombination> find_combination(const std::vector<AvCombination>& combos,
                                              const std::string& video_id,
                                              const std::string& audio_id);

/// True when `combos` contains the (video, audio) pair.
bool contains_combination(const std::vector<AvCombination>& combos,
                          const std::string& video_id, const std::string& audio_id);

/// Stable sort by ascending peak bitrate.
void sort_by_peak(std::vector<AvCombination>& combos);

}  // namespace demuxabr
