// ManifestView: the information a *player* can legitimately learn from a
// manifest. Players in this library never see server-side Content — only a
// view — which is how the paper's root causes are made structural:
//   * a DASH view knows per-track declared bitrates but (absent the §4.1
//     extension) no allowed-combination list;
//   * an HLS top-level view knows combination aggregate bandwidths but no
//     per-track audio bitrates (ExoPlayer's §3.2 problem);
//   * fetching second-level HLS media playlists (the §4.1 recommendation)
//     upgrades the view with per-track bitrates derived from EXT-X-BITRATE
//     or byte ranges.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "manifest/dash_mpd.h"
#include "manifest/hls_playlist.h"
#include "media/track.h"

namespace demuxabr {

enum class Protocol { kDash, kHls };

inline const char* protocol_name(Protocol p) {
  return p == Protocol::kDash ? "DASH" : "HLS";
}

/// A track as visible to the player.
struct TrackView {
  std::string id;
  MediaType type = MediaType::kVideo;
  /// Declared bitrate; meaningful only when bitrate_known.
  double declared_kbps = 0.0;
  bool bitrate_known = false;
  /// Average bitrate when derivable (EXT-X-BITRATE / byte ranges); else 0.
  double avg_kbps = 0.0;
  int width = 0;
  int height = 0;
};

/// A listed audio/video combination as visible to the player.
struct ComboView {
  std::string video_id;
  std::string audio_id;
  double bandwidth_kbps = 0.0;      ///< aggregate requirement (HLS BANDWIDTH)
  double avg_bandwidth_kbps = 0.0;  ///< aggregate average; 0 when undeclared
  /// Per-component declared bitrates when the manifest reveals them (§4.1:
  /// needed when audio and video ride different network paths). 0 = unknown
  /// (e.g. HLS top-level manifests only declare the aggregate).
  double video_kbps = 0.0;
  double audio_kbps = 0.0;

  [[nodiscard]] bool components_known() const {
    return video_kbps > 0.0 && audio_kbps > 0.0;
  }
  [[nodiscard]] std::string label() const { return video_id + "+" + audio_id; }
};

struct ManifestView {
  Protocol protocol = Protocol::kDash;
  /// Manifest order (HLS rendition order matters for ExoPlayer's fallback).
  std::vector<TrackView> audio_tracks;
  std::vector<TrackView> video_tracks;
  /// Listed combinations, manifest order. Empty for plain DASH.
  std::vector<ComboView> combos;
  /// True when the manifest restricts selection to `combos` (HLS always;
  /// DASH only with the §4.1 extension).
  bool has_combination_list = false;

  /// Timeline knowledge (from MPD duration or a fetched media playlist).
  double chunk_duration_s = 0.0;
  int total_chunks = 0;

  [[nodiscard]] const TrackView* find_track(const std::string& id) const;
  [[nodiscard]] const std::vector<TrackView>& tracks(MediaType type) const {
    return type == MediaType::kAudio ? audio_tracks : video_tracks;
  }
  /// Combos sorted by ascending aggregate bandwidth.
  [[nodiscard]] std::vector<ComboView> combos_sorted() const;
  /// The listed combos when the manifest restricts selection, else every
  /// video x audio pair (pair_combo); sorted by ascending bandwidth.
  [[nodiscard]] std::vector<ComboView> listed_or_grid() const;
  /// One type's tracks, stably sorted by ascending declared bitrate.
  [[nodiscard]] std::vector<TrackView> tracks_by_rate(MediaType type) const;
};

/// A (video, audio) pair priced at the sum of its tracks' declared
/// bitrates; its average sums their averages (declared when unknown).
ComboView pair_combo(const TrackView& video, const TrackView& audio);

/// Stable sort by ascending aggregate bandwidth.
void sort_by_bandwidth(std::vector<ComboView>& combos);

/// Build the player view of a DASH MPD.
ManifestView view_from_mpd(const MpdDocument& mpd);

/// Build the player view of an HLS master playlist. `media_playlists`
/// (track id -> playlist) is optional: nullptr models the "commercial
/// player" behaviour the paper describes (top-level information only);
/// providing it models the §4.1 recommendation of reading second-level
/// playlists before adaptation starts.
ManifestView view_from_hls(const HlsMasterPlaylist& master,
                           const std::map<std::string, HlsMediaPlaylist>* media_playlists);

}  // namespace demuxabr
