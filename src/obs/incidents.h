// Incident detection over the fleet timeline (DESIGN.md §13).
//
// The telemetry bins (obs/telemetry.h) are raw series; what an operator —
// and the paper's diagnosis workflow — actually wants is episodes: "a
// stall storm from t=40s to t=55s peaking at 62% of the fleet". This layer
// extracts them with threshold-plus-hysteresis scans (enter at a high
// threshold sustained for min_bins, exit at a lower one) over three series
// families that correspond to the paper's §3 failure modes:
//   - stall storms: fraction of active sessions concurrently stalled,
//   - A/V imbalance: mean |audio − video| buffer level,
//   - link saturation: per-link busy fraction.
// Detection is a pure function of the timeline, so it inherits the
// timeline's cross-engine / cross-thread determinism for free.
//
// Tracer interop: given the run's Tracer, detect_incidents() emits one
// kCatEngine instant at each incident's begin and end on the engine track,
// so episodes line up with engine spans in Perfetto.
//
// telemetry_report() renders the timeline + incidents as one self-contained
// HTML file (inline SVG charts, no external assets) for artifact upload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace demuxabr::obs {

class Tracer;  // obs/trace.h

enum class IncidentType {
  kStallStorm,      ///< > enter-fraction of active sessions stalled
  kAvImbalance,     ///< mean |audio − video| buffer above threshold
  kLinkSaturation,  ///< link busy fraction above threshold
};

const char* incident_type_name(IncidentType type);

/// Hysteresis thresholds per incident family. An episode opens once the
/// series holds at or above `enter` for `min_bins` consecutive bins and
/// closes when it drops below `exit` (or the timeline ends).
struct IncidentConfig {
  double stall_enter_fraction = 0.3;
  double stall_exit_fraction = 0.15;
  std::size_t stall_min_bins = 1;

  double imbalance_enter_s = 4.0;
  double imbalance_exit_s = 2.0;
  std::size_t imbalance_min_bins = 3;

  double link_busy_enter = 0.95;
  double link_busy_exit = 0.80;
  std::size_t link_min_bins = 1;
};

struct Incident {
  IncidentType type = IncidentType::kStallStorm;
  std::string entity;        ///< "fleet" or the affected link's name
  std::size_t link = 0;      ///< link index (kLinkSaturation only)
  std::int64_t start_bin = 0;
  std::int64_t end_bin = 0;  ///< inclusive
  std::int64_t peak_bin = 0;
  double start_s = 0.0;
  double end_s = 0.0;  ///< end of the last bin, (end_bin + 1) · bin_s
  double peak = 0.0;   ///< series maximum inside the episode
};

/// Scan the timeline for episodes of every incident family, ordered stall
/// storms → imbalance → link saturation (links in index order), each family
/// in start-bin order. Emits begin/end instants into `tracer` when it is
/// non-null (the run's Tracer, obs/trace.h).
std::vector<Incident> detect_incidents(const FleetTimeline& timeline,
                                       const IncidentConfig& config = {},
                                       Tracer* tracer = nullptr);

/// Self-contained single-file HTML report: fleet/link charts as inline SVG
/// plus the incident table. No external scripts, styles or fonts.
std::string telemetry_report(const FleetTimeline& timeline,
                             const std::vector<Incident>& incidents,
                             const std::string& title = "Fleet telemetry");

}  // namespace demuxabr::obs
