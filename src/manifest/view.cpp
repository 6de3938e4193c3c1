#include "manifest/view.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "manifest/builder.h"
#include "util/strings.h"

namespace demuxabr {

const TrackView* ManifestView::find_track(const std::string& id) const {
  for (const TrackView& t : audio_tracks) {
    if (t.id == id) return &t;
  }
  for (const TrackView& t : video_tracks) {
    if (t.id == id) return &t;
  }
  return nullptr;
}

std::vector<ComboView> ManifestView::combos_sorted() const {
  std::vector<ComboView> sorted = combos;
  sort_by_bandwidth(sorted);
  return sorted;
}

std::vector<ComboView> ManifestView::listed_or_grid() const {
  if (has_combination_list) return combos_sorted();
  std::vector<ComboView> grid;
  for (const TrackView& video : video_tracks) {
    for (const TrackView& audio : audio_tracks) {
      assert(video.bitrate_known && audio.bitrate_known);
      grid.push_back(pair_combo(video, audio));
    }
  }
  sort_by_bandwidth(grid);
  return grid;
}

std::vector<TrackView> ManifestView::tracks_by_rate(MediaType type) const {
  std::vector<TrackView> sorted = tracks(type);
  std::stable_sort(sorted.begin(), sorted.end(), [](const TrackView& a, const TrackView& b) {
    return a.declared_kbps < b.declared_kbps;
  });
  return sorted;
}

ComboView pair_combo(const TrackView& video, const TrackView& audio) {
  auto average = [](const TrackView& t) {
    return t.avg_kbps > 0.0 ? t.avg_kbps : t.declared_kbps;
  };
  ComboView combo;
  combo.video_id = video.id;
  combo.audio_id = audio.id;
  combo.video_kbps = video.declared_kbps;
  combo.audio_kbps = audio.declared_kbps;
  combo.bandwidth_kbps = video.declared_kbps + audio.declared_kbps;
  combo.avg_bandwidth_kbps = average(video) + average(audio);
  return combo;
}

void sort_by_bandwidth(std::vector<ComboView>& combos) {
  std::stable_sort(combos.begin(), combos.end(), [](const ComboView& a, const ComboView& b) {
    return a.bandwidth_kbps < b.bandwidth_kbps;
  });
}

ManifestView view_from_mpd(const MpdDocument& mpd) {
  ManifestView view;
  view.protocol = Protocol::kDash;

  for (const MpdAdaptationSet& set : mpd.adaptation_sets) {
    const bool is_audio = set.content_type == "audio";
    for (const MpdRepresentation& rep : set.representations) {
      TrackView t;
      t.id = rep.id;
      t.type = is_audio ? MediaType::kAudio : MediaType::kVideo;
      t.declared_kbps = static_cast<double>(rep.bandwidth_bps) / 1000.0;
      t.bitrate_known = true;
      t.avg_kbps = t.declared_kbps;  // DASH declares one number per track
      t.width = rep.width;
      t.height = rep.height;
      (is_audio ? view.audio_tracks : view.video_tracks).push_back(std::move(t));
    }
    if (set.segment_duration_s > 0.0) view.chunk_duration_s = set.segment_duration_s;
  }
  if (view.chunk_duration_s > 0.0 && mpd.media_duration_s > 0.0) {
    view.total_chunks =
        static_cast<int>(std::llround(mpd.media_duration_s / view.chunk_duration_s));
  }

  // §4.1 extension: allowed-combination labels ("V1+A1").
  for (const std::string& label : mpd.allowed_combinations) {
    const std::vector<std::string> parts = split(label, '+');
    if (parts.size() != 2) continue;
    const TrackView* video = view.find_track(std::string(trim(parts[0])));
    const TrackView* audio = view.find_track(std::string(trim(parts[1])));
    if (video == nullptr || audio == nullptr) continue;
    view.combos.push_back(pair_combo(*video, *audio));
  }
  view.has_combination_list = !view.combos.empty();
  return view;
}

ManifestView view_from_hls(const HlsMasterPlaylist& master,
                           const std::map<std::string, HlsMediaPlaylist>* media_playlists) {
  ManifestView view;
  view.protocol = Protocol::kHls;
  view.has_combination_list = true;

  // Audio tracks from EXT-X-MEDIA, in playlist order. The top-level master
  // playlist carries no per-rendition bitrate (§2.3) — bitrate_known stays
  // false unless the second-level playlists are supplied.
  for (const HlsMediaRendition& r : master.audio_renditions) {
    TrackView t;
    t.id = r.name.empty() ? track_id_from_uri(r.uri) : r.name;
    t.type = MediaType::kAudio;
    view.audio_tracks.push_back(std::move(t));
  }

  // Video tracks from distinct variant URIs, in first-appearance order.
  for (const std::string& uri : master.video_uris()) {
    TrackView t;
    t.id = track_id_from_uri(uri);
    t.type = MediaType::kVideo;
    if (const HlsVariant* v = master.first_variant_with_uri(uri)) {
      const std::vector<std::string> dims = split(v->resolution, 'x');
      if (dims.size() == 2) {
        t.width = static_cast<int>(parse_int(dims[0]).value_or(0));
        t.height = static_cast<int>(parse_int(dims[1]).value_or(0));
      }
    }
    view.video_tracks.push_back(std::move(t));
  }

  // Combinations from the variants.
  for (const HlsVariant& v : master.variants) {
    ComboView combo;
    combo.video_id = track_id_from_uri(v.uri);
    // Resolve the audio group to the rendition's track id.
    for (const HlsMediaRendition& r : master.audio_renditions) {
      if (r.group_id == v.audio_group) {
        combo.audio_id = r.name.empty() ? track_id_from_uri(r.uri) : r.name;
        break;
      }
    }
    combo.bandwidth_kbps = static_cast<double>(v.bandwidth_bps) / 1000.0;
    combo.avg_bandwidth_kbps = static_cast<double>(v.average_bandwidth_bps) / 1000.0;
    view.combos.push_back(std::move(combo));
  }

  // §4.1: reading the second-level playlists reveals per-track bitrates.
  if (media_playlists != nullptr) {
    auto fill = [&](TrackView& t) {
      auto it = media_playlists->find(t.id);
      if (it == media_playlists->end()) return;
      const HlsMediaPlaylist& playlist = it->second;
      const double peak = playlist.peak_bitrate_kbps();
      double avg = playlist.average_bitrate_from_tags_kbps();
      if (avg <= 0.0) avg = playlist.average_bitrate_from_byteranges_kbps();
      if (peak > 0.0) {
        t.declared_kbps = peak;
        t.avg_kbps = avg > 0.0 ? avg : peak;
        t.bitrate_known = true;
      }
      if (view.chunk_duration_s <= 0.0 && !playlist.segments.empty()) {
        view.chunk_duration_s = playlist.segments.front().duration_s;
        view.total_chunks = static_cast<int>(playlist.segments.size());
      }
    };
    for (TrackView& t : view.audio_tracks) fill(t);
    for (TrackView& t : view.video_tracks) fill(t);
    // With per-track bitrates known, the combinations gain per-component
    // requirements (§4.1's split-path recommendation).
    for (ComboView& combo : view.combos) {
      const TrackView* video = view.find_track(combo.video_id);
      const TrackView* audio = view.find_track(combo.audio_id);
      if (video != nullptr && video->bitrate_known) combo.video_kbps = video->declared_kbps;
      if (audio != nullptr && audio->bitrate_known) combo.audio_kbps = audio->declared_kbps;
    }
  }
  return view;
}

}  // namespace demuxabr
