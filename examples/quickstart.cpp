// Quickstart: stream a 5-minute title with the best-practice CoordinatedPlayer
// over a time-varying link and print the QoE summary.
//
// Demonstrates the full public API path:
//   ladder -> content -> curated manifest -> parsed view -> session -> QoE.
#include <cstdio>

#include "core/compliance.h"
#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "experiments/tables.h"
#include "sim/session.h"

int main() {
  using namespace demuxabr;

  // 1. Content: the paper's Table 1 ladder, cut into 4 s chunks.
  const Content content = make_drama_content();
  std::printf("%s\n", experiments::render_table1(content).c_str());

  // 2. Server side: curate allowed combinations for a drama on a phone and
  //    publish them in an enhanced DASH manifest (§4.1).
  CurationPolicy policy;
  policy.genre = ContentGenre::kDrama;
  const MpdDocument mpd = build_enhanced_mpd(content, policy);
  const std::string mpd_xml = serialize_mpd(mpd);
  std::printf("generated MPD: %zu bytes, %zu allowed combinations\n\n",
              mpd_xml.size(), mpd.allowed_combinations.size());

  // 3. Client side: parse the manifest and stream over a 600 kbps-average
  //    varying link with the coordinated player (§4.2).
  auto parsed = parse_mpd(mpd_xml);
  if (!parsed.ok()) {
    std::fprintf(stderr, "manifest parse failed: %s\n", parsed.error().c_str());
    return 1;
  }
  const ManifestView view = view_from_mpd(*parsed);

  CoordinatedPlayer player;
  const Network network = Network::shared(experiments::varying_600_trace());
  const SessionLog log = run_session(content, view, network, player);

  // 4. Results.
  const QoeReport qoe = compute_qoe(log);
  std::printf("%s\n", summarize(log, qoe).c_str());
  std::printf("selection timeline: %s\n",
              experiments::render_selection_timeline(log).c_str());
  return log.completed ? 0 : 1;
}
