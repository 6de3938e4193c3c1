// Server-side curation of allowed audio/video combinations (§2.1, §4.1).
//
// The paper argues the origin — which knows the content type, the device
// class and the business rules — should pick the combinations and ship them
// to the client (HLS master playlist variants; the SupplementalProperty
// extension for DASH). This module implements that curation: a policy maps
// (genre, device) to an audio-importance weight, and the weight shapes which
// audio rung each video rung is paired with (music shows pair high audio
// with low/medium video; action content the opposite — the §2.1 examples).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "media/combination.h"
#include "media/ladder.h"

namespace demuxabr {

enum class ContentGenre { kDrama, kMusic, kAction, kNews, kSports };

const char* genre_name(ContentGenre genre);

struct DeviceProfile {
  enum class Screen { kPhone, kTablet, kTv };
  enum class Sound { kMono, kStereo, kSurround };

  Screen screen = Screen::kPhone;
  Sound sound = Sound::kStereo;

  /// Highest useful video height for this screen (taller tracks are excluded).
  [[nodiscard]] int max_video_height() const;
  /// Highest useful audio channel count for this sound system.
  [[nodiscard]] int max_audio_channels() const;
};

struct CurationPolicy {
  ContentGenre genre = ContentGenre::kDrama;
  DeviceProfile device{};

  /// Relative importance of audio quality in [0, 1]. 0.5 pairs the rungs
  /// proportionally (the paper's H_sub); music skews high, action low.
  [[nodiscard]] double audio_importance() const;
};

/// Curate the allowed combinations for a ladder under a policy. Guarantees:
///   * one combination per eligible video rung (device-filtered);
///   * the audio rung is non-decreasing in the video rung (no inversions
///     such as high video + lowest audio next to low video + highest audio);
///   * every eligible audio track appears in at least one combination when
///     the weight makes that reachable.
std::vector<AvCombination> curate_combinations(const BitrateLadder& ladder,
                                               const CurationPolicy& policy);

/// The audio rung (of `num_audio`) paired with each of `num_video` video
/// rungs: the video rung's proportional position, shifted by the policy's
/// audio importance (0.5 pairs proportionally), kept non-decreasing.
std::vector<std::size_t> audio_pairing(std::size_t num_video, std::size_t num_audio,
                                       double audio_importance);

/// Index staircase: expand a per-video-rung audio pairing (audio rung j for
/// video rung i, non-decreasing) into a full upgrade path where adjacent
/// combinations differ in exactly one component. `audio_first` controls
/// whether an audio upgrade is inserted before (true) or after (false) the
/// accompanying video upgrade.
std::vector<std::pair<std::size_t, std::size_t>> staircase_path(
    const std::vector<std::size_t>& audio_for_video, bool audio_first);

/// Curate a full staircase ladder (|V| + extra audio-step combinations):
/// the pairing of curate_combinations() plus the intermediate single-step
/// combinations, giving the client finer adaptation granularity. Policies
/// with audio_importance >= 0.5 upgrade audio before video at each step.
std::vector<AvCombination> curate_staircase(const BitrateLadder& ladder,
                                            const CurationPolicy& policy);

/// Validate a combination list against a ladder: ids exist, bitrate sums
/// correct, monotone (sorted by declared aggregate with non-decreasing audio
/// and video rungs). Returns an empty string when valid, else the reason.
std::string validate_combinations(const BitrateLadder& ladder,
                                  const std::vector<AvCombination>& combos);

}  // namespace demuxabr
