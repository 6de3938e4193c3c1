// Manifest-compliance checking (§3.5: "some players do not conform to the
// manifest file") and server-side manifest enhancement helpers (§4.1).
#pragma once

#include <string>
#include <vector>

#include "core/allowed_combinations.h"
#include "manifest/builder.h"
#include "sim/metrics.h"

namespace demuxabr {

struct ComplianceReport {
  int total_chunks = 0;
  int violating_chunks = 0;
  /// Distinct off-manifest combination labels, first-use order.
  std::vector<std::string> violating_labels;

  [[nodiscard]] bool compliant() const { return violating_chunks == 0; }
};

/// Check every played chunk's (video, audio) pair against the allowed list.
ComplianceReport check_compliance(const SessionLog& log,
                                  const std::vector<AvCombination>& allowed);

/// §4.1 server-side best practice for DASH: an MPD that carries the curated
/// combination list in the SupplementalProperty extension.
MpdDocument build_enhanced_mpd(const Content& content, const CurationPolicy& policy);

/// §4.1 server-side best practice for HLS: a master playlist listing ONLY
/// the curated combinations (never all of them), renditions low-to-high.
HlsMasterPlaylist build_curated_hls_master(const Content& content,
                                           const CurationPolicy& policy);

/// §4.1: media playlists with the EXT-X-BITRATE tag made mandatory.
std::map<std::string, HlsMediaPlaylist> build_bestpractice_media_playlists(
    const Content& content, PackagingMode packaging = PackagingMode::kSeparateFiles);

}  // namespace demuxabr
