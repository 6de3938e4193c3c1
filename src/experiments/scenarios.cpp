#include "experiments/scenarios.h"

#include <cassert>
#include <utility>

#include "core/compliance.h"
#include "manifest/builder.h"
#include "net/topology.h"

namespace demuxabr::experiments {
namespace {

/// Serialize -> parse an MPD and build the view, asserting round-trip health.
ManifestView dash_view(const Content& content, const DashBuildOptions& options = {}) {
  const MpdDocument mpd = build_dash_mpd(content, options);
  const std::string xml_text = serialize_mpd(mpd);
  auto reparsed = parse_mpd(xml_text);
  assert(reparsed.ok());
  return view_from_mpd(*reparsed);
}

/// Serialize -> parse an HLS master (and optionally the media playlists).
ManifestView hls_view(const Content& content, const HlsMasterPlaylist& master,
                      bool with_media_playlists, bool bitrate_tags = false) {
  const std::string master_text = serialize_master(master);
  auto reparsed = parse_master(master_text);
  assert(reparsed.ok());
  if (!with_media_playlists) {
    return view_from_hls(*reparsed, nullptr);
  }
  HlsMediaOptions media_options;
  media_options.include_bitrate_tag = bitrate_tags;
  media_options.packaging =
      bitrate_tags ? PackagingMode::kSeparateFiles : PackagingMode::kSingleFileByteRange;
  std::map<std::string, HlsMediaPlaylist> playlists;
  for (auto& [id, playlist] : build_all_media_playlists(content, media_options)) {
    auto round_tripped = parse_media(serialize_media(playlist));
    assert(round_tripped.ok());
    playlists[id] = std::move(round_tripped).take();
  }
  return view_from_hls(*reparsed, &playlists);
}

/// The Table-1 drama title is the content of almost every scenario. Build it
/// once (VBR chunk generation for all 9 tracks is the expensive part) and
/// hand out copies of the cached instance; sweep loops that used to pay a
/// full rebuild per setup now pay only a small map copy.
Content drama_content() {
  static const Content cached = make_drama_content(/*chunk_duration_s=*/4.0);
  return cached;
}

}  // namespace

SessionLog run(const ExperimentSetup& setup, PlayerAdapter& player) {
  const Network network =
      setup.audio_trace.has_value()
          ? Network::split(setup.trace, *setup.audio_trace, setup.rtt_s)
          : Network::shared(setup.trace, setup.rtt_s);
  return run_session(setup.content, setup.view, network, player, setup.session);
}

BandwidthTrace varying_600_trace() {
  // Fast 8 s / 8 s alternation: the short high phase limits how much an
  // over-committed player can prefetch, reproducing the recurring stalls of
  // Fig 3 for a player pinned to the 384 kbps A3 audio track.
  return BandwidthTrace::square_wave(/*low=*/300.0, /*high=*/900.0,
                                     /*low_duration=*/8.0, /*high_duration=*/8.0,
                                     /*start_high=*/true);
}

BandwidthTrace shaka_varying_600_trace() {
  // 1.2 Mbps high phase: a solo flow moves 18.75 KB per 0.125 s interval
  // (passes Shaka's 16 KB filter) while two concurrent flows move 9.4 KB
  // each (filtered) — only high-phase solo samples reach the estimator.
  return BandwidthTrace::square_wave(/*low=*/350.0, /*high=*/1200.0,
                                     /*low_duration=*/42.0, /*high_duration=*/18.0,
                                     /*start_high=*/false);
}

ExperimentSetup fig2a_exo_dash_audio_b() {
  ExperimentSetup setup;
  setup.id = "fig2a";
  setup.description = "ExoPlayer DASH, audio set B (32/64/128), fixed 900 kbps";
  setup.content = ContentBuilder(drama_with_audio_set_b())
                      .duration_s(300.0)
                      .chunk_duration_s(4.0)
                      .build();
  setup.view = dash_view(setup.content);
  setup.trace = BandwidthTrace::constant(900.0);
  return setup;
}

ExperimentSetup fig2b_exo_dash_audio_c() {
  ExperimentSetup setup;
  setup.id = "fig2b";
  setup.description = "ExoPlayer DASH, audio set C (196/384/768), fixed 900 kbps";
  setup.content = ContentBuilder(drama_with_audio_set_c())
                      .duration_s(300.0)
                      .chunk_duration_s(4.0)
                      .build();
  setup.view = dash_view(setup.content);
  setup.trace = BandwidthTrace::constant(900.0);
  return setup;
}

ExperimentSetup fig3_exo_hls_a3_first() {
  ExperimentSetup setup;
  setup.id = "fig3";
  setup.description = "ExoPlayer HLS H_sub, A3 listed first, varying 600 kbps avg";
  setup.content = drama_content();
  // A3 first in the EXT-X-MEDIA list — the §3.2 experiment variable.
  const HlsMasterPlaylist master =
      build_hsub_master(setup.content, {"A3", "A2", "A1"});
  setup.view = hls_view(setup.content, master, /*with_media_playlists=*/false);
  setup.allowed = curated_subset(setup.content.ladder());
  setup.trace = varying_600_trace();
  return setup;
}

ExperimentSetup fig3x_exo_hls_a1_first_5mbps() {
  ExperimentSetup setup;
  setup.id = "fig3x";
  setup.description = "ExoPlayer HLS H_sub, A1 listed first, fixed 5 Mbps";
  setup.content = drama_content();
  const HlsMasterPlaylist master =
      build_hsub_master(setup.content, {"A1", "A2", "A3"});
  setup.view = hls_view(setup.content, master, /*with_media_playlists=*/false);
  setup.allowed = curated_subset(setup.content.ladder());
  setup.trace = BandwidthTrace::constant(5000.0);
  return setup;
}

ExperimentSetup fig4a_shaka_hall_1mbps() {
  ExperimentSetup setup;
  setup.id = "fig4a";
  setup.description = "Shaka HLS H_all, fixed 1 Mbps";
  setup.content = drama_content();
  const HlsMasterPlaylist master = build_hall_master(setup.content);
  setup.view = hls_view(setup.content, master, /*with_media_playlists=*/false);
  setup.allowed = all_combinations(setup.content.ladder());
  setup.trace = BandwidthTrace::constant(1000.0);
  return setup;
}

ExperimentSetup fig4b_shaka_hall_varying() {
  ExperimentSetup setup;
  setup.id = "fig4b";
  setup.description = "Shaka HLS H_all, varying 600 kbps avg";
  setup.content = drama_content();
  const HlsMasterPlaylist master = build_hall_master(setup.content);
  setup.view = hls_view(setup.content, master, /*with_media_playlists=*/false);
  setup.allowed = all_combinations(setup.content.ladder());
  setup.trace = shaka_varying_600_trace();
  return setup;
}

ExperimentSetup fig4c_shaka_dash_1mbps() {
  ExperimentSetup setup;
  setup.id = "fig4c";
  setup.description = "Shaka DASH (all combinations recreated), fixed 1 Mbps";
  setup.content = drama_content();
  setup.view = dash_view(setup.content);
  setup.trace = BandwidthTrace::constant(1000.0);
  return setup;
}

ExperimentSetup fig5_dashjs_700() {
  ExperimentSetup setup;
  setup.id = "fig5";
  setup.description = "dash.js DASH, fixed 700 kbps";
  setup.content = drama_content();
  setup.view = dash_view(setup.content);
  setup.trace = BandwidthTrace::constant(700.0);
  return setup;
}

ExperimentSetup bestpractice_dash(BandwidthTrace trace, const std::string& id) {
  ExperimentSetup setup;
  setup.id = id;
  setup.description = "best-practice DASH (combination extension), " + id;
  setup.content = drama_content();
  // Drama on a TV-class device: the whole Table 1 ladder is eligible.
  CurationPolicy policy;
  policy.device.screen = DeviceProfile::Screen::kTv;
  policy.device.sound = DeviceProfile::Sound::kSurround;
  DashBuildOptions options;
  options.allowed_combinations = curate_staircase(setup.content.ladder(), policy);
  setup.view = dash_view(setup.content, options);
  setup.allowed = options.allowed_combinations;
  setup.trace = std::move(trace);
  return setup;
}

ExperimentSetup bestpractice_hls(BandwidthTrace trace, const std::string& id) {
  ExperimentSetup setup;
  setup.id = id;
  setup.description = "best-practice HLS (curated variants, EXT-X-BITRATE), " + id;
  setup.content = drama_content();
  CurationPolicy policy;
  policy.device.screen = DeviceProfile::Screen::kTv;
  policy.device.sound = DeviceProfile::Sound::kSurround;
  const HlsMasterPlaylist master = build_curated_hls_master(setup.content, policy);
  setup.view = hls_view(setup.content, master, /*with_media_playlists=*/true,
                        /*bitrate_tags=*/true);
  setup.allowed = curate_staircase(setup.content.ladder(), policy);
  setup.trace = std::move(trace);
  return setup;
}

ExperimentSetup plain_dash(BandwidthTrace trace, const std::string& id) {
  ExperimentSetup setup;
  setup.id = id;
  setup.description = "plain DASH (no combination list), " + id;
  setup.content = drama_content();
  setup.view = dash_view(setup.content);
  setup.trace = std::move(trace);
  return setup;
}

ExperimentSetup split_path_dash(BandwidthTrace video_trace, BandwidthTrace audio_trace,
                                const std::string& id) {
  ExperimentSetup setup = bestpractice_dash(std::move(video_trace), id);
  setup.description = "best-practice DASH, split audio/video paths, " + id;
  setup.audio_trace = std::move(audio_trace);
  return setup;
}

std::vector<NamedTrace> comparison_traces() {
  std::vector<NamedTrace> traces;
  traces.push_back({"fixed-700k", BandwidthTrace::constant(700.0)});
  traces.push_back({"fixed-900k", BandwidthTrace::constant(900.0)});
  traces.push_back({"fixed-1m", BandwidthTrace::constant(1000.0)});
  traces.push_back({"fixed-5m", BandwidthTrace::constant(5000.0)});
  traces.push_back({"varying-600k", varying_600_trace()});
  traces.push_back({"varying-600k-bursty", shaka_varying_600_trace()});
  traces.push_back({"randomwalk-300-1500",
                    BandwidthTrace::random_walk(300.0, 1500.0, 2.0, 300.0, 120.0, 11)});
  traces.push_back({"cellular-lte", BandwidthTrace::cellular(300.0, 21)});
  return traces;
}

}  // namespace demuxabr::experiments
