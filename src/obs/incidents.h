// Incident detection over the fleet timeline (DESIGN.md §13).
//
// The telemetry bins (obs/telemetry.h) are raw series; what an operator —
// and the paper's diagnosis workflow — actually wants is episodes: "a
// stall storm from t=40s to t=55s peaking at 62% of the fleet". This layer
// extracts them with threshold-plus-hysteresis scans (enter at a high
// threshold sustained for a minimum run of bins, exit at a lower one) over
// three series families that correspond to the paper's §3 failure modes:
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
/// in start-bin order. An episode opens once the series holds at or above
/// the family's enter threshold for its minimum run of consecutive bins and
/// closes when it drops below the exit threshold (or the timeline ends);
/// the thresholds are constants of incidents.cpp (DESIGN.md §13). Emits
/// begin/end instants into `tracer` when it is non-null (the run's Tracer,
/// obs/trace.h).
std::vector<Incident> detect_incidents(const FleetTimeline& timeline,
                                       Tracer* tracer = nullptr);

/// Self-contained single-file HTML report: fleet/link charts as inline SVG
/// plus the incident table. No external scripts, styles or fonts.
std::string telemetry_report(const FleetTimeline& timeline,
                             const std::vector<Incident>& incidents,
                             const std::string& title = "Fleet telemetry");

}  // namespace demuxabr::obs
