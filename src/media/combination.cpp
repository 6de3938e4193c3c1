#include "media/combination.h"

#include <algorithm>
#include <cassert>

namespace demuxabr {

AvCombination make_combination(const BitrateLadder& ladder, const std::string& video_id,
                               const std::string& audio_id) {
  const TrackInfo* video = ladder.find(video_id);
  const TrackInfo* audio = ladder.find(audio_id);
  assert(video != nullptr && video->is_video());
  assert(audio != nullptr && audio->is_audio());
  AvCombination combo;
  combo.video_id = video_id;
  combo.audio_id = audio_id;
  combo.avg_kbps = video->avg_kbps + audio->avg_kbps;
  combo.peak_kbps = video->peak_kbps + audio->peak_kbps;
  combo.declared_kbps = video->declared_kbps + audio->declared_kbps;
  return combo;
}

std::vector<AvCombination> all_combinations(const BitrateLadder& ladder) {
  std::vector<AvCombination> combos;
  combos.reserve(ladder.video_count() * ladder.audio_count());
  for (const TrackInfo& v : ladder.video()) {
    for (const TrackInfo& a : ladder.audio()) {
      combos.push_back(make_combination(ladder, v.id, a.id));
    }
  }
  sort_by_peak(combos);
  return combos;
}

std::vector<AvCombination> curated_subset(const BitrateLadder& ladder) {
  return proportional_pairing(ladder);
}

std::vector<AvCombination> proportional_pairing(const BitrateLadder& ladder) {
  const std::size_t num_video = ladder.video_count();
  const std::size_t num_audio = ladder.audio_count();
  assert(num_video > 0 && num_audio > 0);
  std::vector<AvCombination> combos;
  combos.reserve(num_video);
  for (std::size_t i = 0; i < num_video; ++i) {
    const std::size_t j = std::min(i * num_audio / num_video, num_audio - 1);
    combos.push_back(
        make_combination(ladder, ladder.video()[i].id, ladder.audio()[j].id));
  }
  return combos;
}

std::optional<AvCombination> find_combination(const std::vector<AvCombination>& combos,
                                              const std::string& video_id,
                                              const std::string& audio_id) {
  for (const AvCombination& c : combos) {
    if (c.video_id == video_id && c.audio_id == audio_id) return c;
  }
  return std::nullopt;
}

bool contains_combination(const std::vector<AvCombination>& combos,
                          const std::string& video_id, const std::string& audio_id) {
  return find_combination(combos, video_id, audio_id).has_value();
}

void sort_by_peak(std::vector<AvCombination>& combos) {
  std::stable_sort(combos.begin(), combos.end(),
                   [](const AvCombination& a, const AvCombination& b) {
                     return a.peak_kbps < b.peak_kbps;
                   });
}

}  // namespace demuxabr
