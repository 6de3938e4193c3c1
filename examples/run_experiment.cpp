// run_experiment: parameterized CLI over the whole framework — pick a player
// model, a protocol/manifest flavour, and a bandwidth profile; get the QoE
// summary and (optionally) the full CSV series.
//
//   run_experiment --player coordinated --protocol dash-enhanced
//                  --trace square:300:900:8:8 --csv-out out/
//   run_experiment --player shaka --protocol hls-all --trace fixed:1000
//   run_experiment --player coordinated-mpc --trace walk:300:1500:150:7
//                  --audio-trace fixed:200 --genre music --device tv
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "core/compliance.h"
#include "core/coordinated_player.h"
#include "experiments/tables.h"
#include "manifest/builder.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "players/shaka.h"
#include "sim/session.h"
#include "util/csv.h"
#include "util/strings.h"

namespace {

using namespace demuxabr;

struct Options {
  std::string player = "coordinated";
  std::string protocol = "dash-enhanced";
  std::string trace_spec = "square:300:900:8:8";
  std::string audio_trace_spec;  // empty = shared bottleneck
  double duration_s = 300.0;
  double chunk_s = 4.0;
  double rtt_s = 0.05;
  std::uint64_t seed = 42;
  std::string genre = "drama";
  std::string device = "tv";
  std::string csv_out;
  bool help = false;
};

void usage() {
  std::printf(
      "usage: run_experiment [options]\n"
      "  --player      exo | shaka | dashjs | coordinated | coordinated-mpc\n"
      "  --protocol    dash | dash-enhanced | hls-all | hls-sub | hls-curated\n"
      "  --trace       fixed:<kbps> | square:<low>:<high>:<lo_s>:<hi_s> |\n"
      "                walk:<min>:<max>:<vol>:<seed> | csv:<file>\n"
      "  --audio-trace same syntax; gives audio its own network path\n"
      "  --duration    content seconds (default 300)\n"
      "  --chunk       chunk seconds (default 4)\n"
      "  --rtt         request RTT seconds (default 0.05)\n"
      "  --seed        content VBR seed (default 42)\n"
      "  --genre       drama | music | action | news | sports\n"
      "  --device      phone | tablet | tv\n"
      "  --csv-out     directory for the full series dump\n");
}

std::optional<BandwidthTrace> parse_trace(const std::string& spec) {
  const std::vector<std::string> parts = split(spec, ':');
  auto num = [&](std::size_t i) { return parse_double(parts[i]).value_or(-1.0); };
  if (parts[0] == "fixed" && parts.size() == 2 && num(1) > 0) {
    return BandwidthTrace::constant(num(1));
  }
  if (parts[0] == "square" && parts.size() == 5 && num(1) > 0 && num(2) > 0 &&
      num(3) > 0 && num(4) > 0) {
    return BandwidthTrace::square_wave(num(1), num(2), num(3), num(4), true);
  }
  if (parts[0] == "walk" && parts.size() == 5 && num(1) > 0 && num(2) >= num(1)) {
    return BandwidthTrace::random_walk(num(1), num(2), 2.0, 300.0, num(3),
                                       static_cast<std::uint64_t>(num(4)));
  }
  if (parts[0] == "csv" && parts.size() == 2) {
    const auto text = read_file(parts[1]);
    if (!text.ok()) {
      std::fprintf(stderr, "error: %s\n", text.error().c_str());
      return std::nullopt;
    }
    auto trace = BandwidthTrace::from_csv(*text);
    if (!trace.ok()) {
      std::fprintf(stderr, "error: %s\n", trace.error().c_str());
      return std::nullopt;
    }
    return *trace;
  }
  std::fprintf(stderr, "error: bad trace spec '%s'\n", spec.c_str());
  return std::nullopt;
}

std::optional<Options> parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::optional<std::string> {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    if (arg == "--help" || arg == "-h") {
      options.help = true;
      return options;
    }
    std::optional<std::string> v;
    if (arg == "--player" && (v = value())) options.player = *v;
    else if (arg == "--protocol" && (v = value())) options.protocol = *v;
    else if (arg == "--trace" && (v = value())) options.trace_spec = *v;
    else if (arg == "--audio-trace" && (v = value())) options.audio_trace_spec = *v;
    else if (arg == "--duration" && (v = value())) options.duration_s = parse_double(*v).value_or(300.0);
    else if (arg == "--chunk" && (v = value())) options.chunk_s = parse_double(*v).value_or(4.0);
    else if (arg == "--rtt" && (v = value())) options.rtt_s = parse_double(*v).value_or(0.05);
    else if (arg == "--seed" && (v = value())) options.seed = static_cast<std::uint64_t>(parse_int(*v).value_or(42));
    else if (arg == "--genre" && (v = value())) options.genre = *v;
    else if (arg == "--device" && (v = value())) options.device = *v;
    else if (arg == "--csv-out" && (v = value())) options.csv_out = *v;
    else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", arg.c_str());
      return std::nullopt;
    }
    if (!v.has_value() && arg != "--help") return std::nullopt;
  }
  return options;
}

CurationPolicy make_policy(const Options& options) {
  CurationPolicy policy;
  if (options.genre == "music") policy.genre = ContentGenre::kMusic;
  else if (options.genre == "action") policy.genre = ContentGenre::kAction;
  else if (options.genre == "news") policy.genre = ContentGenre::kNews;
  else if (options.genre == "sports") policy.genre = ContentGenre::kSports;
  else policy.genre = ContentGenre::kDrama;
  if (options.device == "phone") policy.device.screen = DeviceProfile::Screen::kPhone;
  else if (options.device == "tablet") policy.device.screen = DeviceProfile::Screen::kTablet;
  else {
    policy.device.screen = DeviceProfile::Screen::kTv;
    policy.device.sound = DeviceProfile::Sound::kSurround;
  }
  return policy;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse_args(argc, argv);
  if (!parsed.has_value()) {
    usage();
    return 2;
  }
  const Options& options = *parsed;
  if (options.help) {
    usage();
    return 0;
  }

  // Content.
  VbrModelParams vbr;
  vbr.seed = options.seed;
  const Content content = ContentBuilder(youtube_drama_ladder())
                              .duration_s(options.duration_s)
                              .chunk_duration_s(options.chunk_s)
                              .vbr_params(vbr)
                              .build();
  const CurationPolicy policy = make_policy(options);

  // Manifest & view.
  ManifestView view;
  std::vector<AvCombination> allowed;
  if (options.protocol == "dash") {
    view = view_from_mpd(build_dash_mpd(content));
  } else if (options.protocol == "dash-enhanced") {
    allowed = curate_staircase(content.ladder(), policy);
    const auto mpd = parse_mpd(serialize_mpd(build_enhanced_mpd(content, policy)));
    view = view_from_mpd(*mpd);
  } else if (options.protocol == "hls-all") {
    allowed = all_combinations(content.ladder());
    view = view_from_hls(build_hall_master(content), nullptr);
  } else if (options.protocol == "hls-sub") {
    allowed = curated_subset(content.ladder());
    view = view_from_hls(build_hsub_master(content), nullptr);
  } else if (options.protocol == "hls-curated") {
    allowed = curate_staircase(content.ladder(), policy);
    const auto playlists = build_bestpractice_media_playlists(content);
    view = view_from_hls(build_curated_hls_master(content, policy), &playlists);
  } else {
    std::fprintf(stderr, "error: unknown protocol '%s'\n", options.protocol.c_str());
    return 2;
  }

  // Player.
  std::unique_ptr<PlayerAdapter> player;
  if (options.player == "exo") {
    player = std::make_unique<ExoPlayerModel>();
  } else if (options.player == "shaka") {
    player = std::make_unique<ShakaPlayerModel>();
  } else if (options.player == "dashjs") {
    if (view.protocol != Protocol::kDash) {
      std::fprintf(stderr, "error: dashjs supports DASH protocols only\n");
      return 2;
    }
    player = std::make_unique<DashJsPlayerModel>();
  } else if (options.player == "coordinated" || options.player == "coordinated-mpc") {
    CoordinatedConfig config;
    config.fallback_policy = policy;
    if (options.player == "coordinated-mpc") config.algorithm = AbrAlgorithm::kMpc;
    if (!options.audio_trace_spec.empty()) config.per_path_estimation = true;
    player = std::make_unique<CoordinatedPlayer>(config);
  } else {
    std::fprintf(stderr, "error: unknown player '%s'\n", options.player.c_str());
    return 2;
  }

  // Network.
  const auto trace = parse_trace(options.trace_spec);
  if (!trace.has_value()) return 2;
  Network network = Network::shared(*trace, options.rtt_s);
  if (!options.audio_trace_spec.empty()) {
    const auto audio_trace = parse_trace(options.audio_trace_spec);
    if (!audio_trace.has_value()) return 2;
    network = Network::split(*trace, *audio_trace, options.rtt_s);
  }

  // Run.
  const SessionLog log = run_session(content, view, network, *player);
  const QoeReport qoe = compute_qoe(log, allowed.empty() ? nullptr : &allowed);
  std::printf("%s", summarize(log, qoe).c_str());
  std::printf("timeline: %s\n", demuxabr::experiments::render_selection_timeline(log).c_str());
  if (!allowed.empty()) {
    const ComplianceReport compliance = check_compliance(log, allowed);
    std::printf("manifest compliance: %s (%d/%d chunks off-manifest)\n",
                compliance.compliant() ? "OK" : "VIOLATED",
                compliance.violating_chunks, compliance.total_chunks);
  }

  // Optional CSV dump.
  if (!options.csv_out.empty()) {
    namespace fs = std::filesystem;
    fs::create_directories(options.csv_out);
    const fs::path dir(options.csv_out);
    write_file((dir / "selection.csv").string(), selection_csv(log));
    write_file((dir / "video_buffer_s.csv").string(),
               log.video_buffer_s.resample(0, log.end_time_s, 1.0).to_csv("video_buffer_s"));
    write_file((dir / "audio_buffer_s.csv").string(),
               log.audio_buffer_s.resample(0, log.end_time_s, 1.0).to_csv("audio_buffer_s"));
    write_file((dir / "estimate_kbps.csv").string(),
               log.bandwidth_estimate_kbps.resample(0, log.end_time_s, 1.0)
                   .to_csv("estimate_kbps"));
    write_file((dir / "trace.csv").string(), trace->to_csv());
    std::printf("series written to %s\n", options.csv_out.c_str());
  }
  return log.completed ? 0 : 1;
}
