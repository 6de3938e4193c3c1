#include "core/allowed_combinations.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace demuxabr {

const char* genre_name(ContentGenre genre) {
  switch (genre) {
    case ContentGenre::kDrama: return "drama";
    case ContentGenre::kMusic: return "music";
    case ContentGenre::kAction: return "action";
    case ContentGenre::kNews: return "news";
    case ContentGenre::kSports: return "sports";
  }
  return "?";
}

int DeviceProfile::max_video_height() const {
  switch (screen) {
    case Screen::kPhone: return 720;
    case Screen::kTablet: return 1080;
    case Screen::kTv: return 4320;
  }
  return 1080;
}

int DeviceProfile::max_audio_channels() const {
  switch (sound) {
    // Mono output gains nothing from surround tracks; stereo downmixes 5.1
    // fine but not object-based 8+ channel tracks.
    case Sound::kMono: return 2;
    case Sound::kStereo: return 6;
    case Sound::kSurround: return 16;
  }
  return 2;
}

double CurationPolicy::audio_importance() const {
  switch (genre) {
    case ContentGenre::kMusic: return 0.8;
    case ContentGenre::kDrama: return 0.5;
    case ContentGenre::kNews: return 0.35;
    case ContentGenre::kAction: return 0.3;
    case ContentGenre::kSports: return 0.3;
  }
  return 0.5;
}

std::vector<AvCombination> curate_combinations(const BitrateLadder& ladder,
                                               const CurationPolicy& policy) {
  // Device-eligible tracks.
  std::vector<const TrackInfo*> video;
  for (const TrackInfo& t : ladder.video()) {
    if (t.height <= policy.device.max_video_height()) video.push_back(&t);
  }
  if (video.empty()) video.push_back(&ladder.video().front());
  std::vector<const TrackInfo*> audio;
  for (const TrackInfo& t : ladder.audio()) {
    if (t.channels <= policy.device.max_audio_channels()) audio.push_back(&t);
  }
  if (audio.empty()) audio.push_back(&ladder.audio().front());

  const std::vector<std::size_t> pairing =
      audio_pairing(video.size(), audio.size(), policy.audio_importance());
  std::vector<AvCombination> combos;
  combos.reserve(video.size());
  for (std::size_t i = 0; i < video.size(); ++i) {
    combos.push_back(make_combination(ladder, video[i]->id, audio[pairing[i]]->id));
  }
  return combos;
}

std::vector<std::size_t> audio_pairing(std::size_t num_video, std::size_t num_audio,
                                       double audio_importance) {
  std::vector<std::size_t> pairing;
  pairing.reserve(num_video);
  std::size_t previous_audio = 0;
  for (std::size_t i = 0; i < num_video; ++i) {
    // Normalized position of this video rung in (0, 1].
    const double v_pos = (static_cast<double>(i) + 0.5) / static_cast<double>(num_video);
    // Shift the audio target by the policy weight: 0.5 is proportional
    // pairing (H_sub); higher weights pull audio quality up at every rung.
    const double a_pos = std::clamp(v_pos + (audio_importance - 0.5), 0.0, 1.0);
    auto j = static_cast<std::size_t>(a_pos * static_cast<double>(num_audio));
    if (j >= num_audio) j = num_audio - 1;
    j = std::max(j, previous_audio);  // keep audio rung monotone
    previous_audio = j;
    pairing.push_back(j);
  }
  return pairing;
}

std::vector<std::pair<std::size_t, std::size_t>> staircase_path(
    const std::vector<std::size_t>& audio_for_video, bool audio_first) {
  std::vector<std::pair<std::size_t, std::size_t>> path;
  if (audio_for_video.empty()) return path;
  std::size_t audio = audio_for_video.front();
  path.emplace_back(0, audio);
  for (std::size_t i = 1; i < audio_for_video.size(); ++i) {
    const std::size_t target = std::max(audio_for_video[i], audio);
    if (audio_first) {
      while (audio < target) path.emplace_back(i - 1, ++audio);
      path.emplace_back(i, audio);
    } else {
      path.emplace_back(i, audio);
      while (audio < target) path.emplace_back(i, ++audio);
    }
  }
  return path;
}

std::vector<AvCombination> curate_staircase(const BitrateLadder& ladder,
                                            const CurationPolicy& policy) {
  const std::vector<AvCombination> pairing = curate_combinations(ladder, policy);
  // Recover the rung indices of the pairing within the *eligible* track
  // subsets so the staircase interpolates over the same tracks.
  std::vector<std::string> video_ids;
  std::vector<std::string> audio_ids;
  std::vector<std::size_t> audio_for_video;
  for (const AvCombination& c : pairing) {
    video_ids.push_back(c.video_id);
    auto it = std::find(audio_ids.begin(), audio_ids.end(), c.audio_id);
    if (it == audio_ids.end()) {
      audio_ids.push_back(c.audio_id);
      audio_for_video.push_back(audio_ids.size() - 1);
    } else {
      audio_for_video.push_back(static_cast<std::size_t>(it - audio_ids.begin()));
    }
  }
  const bool audio_first = policy.audio_importance() >= 0.5;
  std::vector<AvCombination> combos;
  for (const auto& [i, j] : staircase_path(audio_for_video, audio_first)) {
    combos.push_back(make_combination(ladder, video_ids[i], audio_ids[j]));
  }
  return combos;
}

std::string validate_combinations(const BitrateLadder& ladder,
                                  const std::vector<AvCombination>& combos) {
  if (combos.empty()) return "combination list is empty";
  std::size_t previous_video = 0;
  std::size_t previous_audio = 0;
  double previous_declared = 0.0;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    const AvCombination& c = combos[i];
    const TrackInfo* video = ladder.find(c.video_id);
    const TrackInfo* audio = ladder.find(c.audio_id);
    if (video == nullptr || !video->is_video()) {
      return "unknown video track " + c.video_id;
    }
    if (audio == nullptr || !audio->is_audio()) {
      return "unknown audio track " + c.audio_id;
    }
    if (std::abs(c.declared_kbps - (video->declared_kbps + audio->declared_kbps)) > 0.5) {
      return "declared bitrate of " + c.label() + " does not match track sum";
    }
    if (std::abs(c.peak_kbps - (video->peak_kbps + audio->peak_kbps)) > 0.5) {
      return "peak bitrate of " + c.label() + " does not match track sum";
    }
    const std::size_t video_rung = *ladder.index_of(c.video_id);
    const std::size_t audio_rung = *ladder.index_of(c.audio_id);
    if (i > 0) {
      if (video_rung < previous_video || audio_rung < previous_audio) {
        return "combination " + c.label() + " inverts the quality ordering";
      }
      if (c.declared_kbps + 0.5 < previous_declared) {
        return "combination " + c.label() + " decreases aggregate bitrate";
      }
    }
    previous_video = video_rung;
    previous_audio = audio_rung;
    previous_declared = c.declared_kbps;
  }
  return "";
}

}  // namespace demuxabr
