#include "obs/incidents.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/strings.h"

namespace demuxabr::obs {

namespace {

/// One hysteresis scan over a value series: open at `enter` sustained for
/// `min_bins`, close below `exit` (or at the end of the series).
void scan_series(const std::vector<double>& series, double enter, double exit,
                 std::size_t min_bins, double bin_s, IncidentType type,
                 const std::string& entity, std::size_t link,
                 std::vector<Incident>& out) {
  if (min_bins == 0) min_bins = 1;
  bool open = false;
  std::size_t run = 0;
  Incident current;
  const auto finalize = [&](std::size_t end_bin) {
    current.end_bin = static_cast<std::int64_t>(end_bin);
    current.end_s = static_cast<double>(end_bin + 1) * bin_s;
    out.push_back(current);
    open = false;
    run = 0;
  };
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double value = series[i];
    if (!open) {
      if (value >= enter) {
        ++run;
        if (run >= min_bins) {
          const std::size_t start = i + 1 - run;
          current = Incident{};
          current.type = type;
          current.entity = entity;
          current.link = link;
          current.start_bin = static_cast<std::int64_t>(start);
          current.start_s = static_cast<double>(start) * bin_s;
          current.peak = series[start];
          current.peak_bin = static_cast<std::int64_t>(start);
          for (std::size_t j = start; j <= i; ++j) {
            if (series[j] > current.peak) {
              current.peak = series[j];
              current.peak_bin = static_cast<std::int64_t>(j);
            }
          }
          open = true;
        }
      } else {
        run = 0;
      }
      continue;
    }
    if (value < exit) {
      finalize(i - 1);
    } else if (value > current.peak) {
      current.peak = value;
      current.peak_bin = static_cast<std::int64_t>(i);
    }
  }
  if (open) finalize(series.size() - 1);
}

std::vector<double> stall_fraction_series(const FleetTimeline& t) {
  std::vector<double> series(t.bins.size(), 0.0);
  for (std::size_t i = 0; i < t.bins.size(); ++i) {
    if (t.bins[i].active_sessions > 0) {
      series[i] = static_cast<double>(t.bins[i].stalled_sessions) /
                  static_cast<double>(t.bins[i].active_sessions);
    }
  }
  return series;
}

std::vector<double> imbalance_series(const FleetTimeline& t) {
  std::vector<double> series(t.bins.size(), 0.0);
  for (std::size_t i = 0; i < t.bins.size(); ++i) {
    if (t.bins[i].samples > 0) {
      series[i] = static_cast<double>(t.bins[i].imbalance_sum_us) / 1e6 /
                  static_cast<double>(t.bins[i].samples);
    }
  }
  return series;
}

std::vector<double> busy_fraction_series(const FleetTimeline& t,
                                         const LinkSeries& link) {
  std::vector<double> series(link.bins.size(), 0.0);
  for (std::size_t i = 0; i < link.bins.size(); ++i) {
    series[i] = static_cast<double>(link.bins[i].busy_us) / 1e6 / t.bin_s;
  }
  return series;
}

std::string html_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

/// Palette for multi-series charts; cycles.
const char* series_color(std::size_t index) {
  static const char* kColors[] = {"#1f77b4", "#d62728", "#2ca02c", "#ff7f0e",
                                  "#9467bd", "#8c564b", "#17becf", "#7f7f7f"};
  return kColors[index % (sizeof(kColors) / sizeof(kColors[0]))];
}

constexpr int kChartW = 860;
constexpr int kChartH = 150;
constexpr int kChartPad = 4;

struct ChartSeries {
  std::string label;
  std::vector<double> values;
};

/// One inline-SVG line chart: shared y-scale over all series, a legend
/// above, the y-max printed in the corner.
std::string svg_chart(const std::string& title,
                      const std::vector<ChartSeries>& series, double y_floor) {
  double y_max = y_floor;
  std::size_t n = 0;
  for (const ChartSeries& s : series) {
    n = std::max(n, s.values.size());
    for (const double v : s.values) y_max = std::max(y_max, v);
  }
  if (y_max <= 0.0) y_max = 1.0;
  std::string out = "<div class=\"chart\"><h3>" + html_escape(title) + "</h3><p class=\"legend\">";
  for (std::size_t s = 0; s < series.size(); ++s) {
    out += format("<span style=\"color:%s\">&#9632; %s</span> ",
                  series_color(s), html_escape(series[s].label).c_str());
  }
  out += format("<span class=\"ymax\">y-max %.2f</span></p>", y_max);
  out += format(
      "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" "
      "role=\"img\">\n<rect x=\"0\" y=\"0\" width=\"%d\" height=\"%d\" "
      "fill=\"#fafafa\" stroke=\"#ddd\"/>\n",
      kChartW, kChartH, kChartW, kChartH, kChartW, kChartH);
  const double plot_w = kChartW - 2.0 * kChartPad;
  const double plot_h = kChartH - 2.0 * kChartPad;
  for (std::size_t s = 0; s < series.size(); ++s) {
    const std::vector<double>& values = series[s].values;
    if (values.empty()) continue;
    out += format("<polyline fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\" points=\"",
                  series_color(s));
    const double dx = values.size() > 1 ? plot_w / static_cast<double>(values.size() - 1) : 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double x = kChartPad + dx * static_cast<double>(i);
      const double y = kChartPad + plot_h * (1.0 - std::min(values[i], y_max) / y_max);
      out += format("%s%.1f,%.1f", i > 0 ? " " : "", x, y);
    }
    out += "\"/>\n";
  }
  out += "</svg></div>\n";
  (void)n;
  return out;
}

}  // namespace

const char* incident_type_name(IncidentType type) {
  switch (type) {
    case IncidentType::kStallStorm: return "stall_storm";
    case IncidentType::kAvImbalance: return "av_imbalance";
    case IncidentType::kLinkSaturation: return "link_saturation";
  }
  return "unknown";
}

std::vector<Incident> detect_incidents(const FleetTimeline& timeline,
                                       const IncidentConfig& config,
                                       Tracer* tracer) {
  std::vector<Incident> incidents;
  scan_series(stall_fraction_series(timeline), config.stall_enter_fraction,
              config.stall_exit_fraction, config.stall_min_bins,
              timeline.bin_s, IncidentType::kStallStorm, "fleet", 0, incidents);
  scan_series(imbalance_series(timeline), config.imbalance_enter_s,
              config.imbalance_exit_s, config.imbalance_min_bins,
              timeline.bin_s, IncidentType::kAvImbalance, "fleet", 0,
              incidents);
  for (std::size_t l = 0; l < timeline.links.size(); ++l) {
    scan_series(busy_fraction_series(timeline, timeline.links[l]),
                config.link_busy_enter, config.link_busy_exit,
                config.link_min_bins, timeline.bin_s,
                IncidentType::kLinkSaturation, timeline.links[l].name, l,
                incidents);
  }
  for (const Incident& incident : incidents) {
    DMX_TRACE_INSTANT(
        tracer, kCatEngine, kEngineTrack, kLanePlayback, "incident_begin",
        incident.start_s,
        TraceArgs()
            .kv("type", std::string_view(incident_type_name(incident.type)))
            .kv("entity", std::string_view(incident.entity))
            .kv("peak", incident.peak));
    DMX_TRACE_INSTANT(
        tracer, kCatEngine, kEngineTrack, kLanePlayback, "incident_end",
        incident.end_s,
        TraceArgs()
            .kv("type", std::string_view(incident_type_name(incident.type)))
            .kv("entity", std::string_view(incident.entity))
            .kv("peak", incident.peak));
  }
  return incidents;
}

std::string telemetry_report(const FleetTimeline& timeline,
                             const std::vector<Incident>& incidents,
                             const std::string& title) {
  std::string out =
      "<!doctype html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n";
  out += "<title>" + html_escape(title) + "</title>\n";
  out +=
      "<style>\n"
      "body{font-family:system-ui,sans-serif;margin:24px;color:#222}\n"
      "h1{font-size:1.4em}h2{font-size:1.1em;margin-top:1.6em}\n"
      "h3{font-size:0.95em;margin:0.4em 0 0.1em}\n"
      ".legend{font-size:0.8em;margin:0.1em 0 0.3em}\n"
      ".ymax{color:#888;float:right}\n"
      "table{border-collapse:collapse;font-size:0.85em}\n"
      "td,th{border:1px solid #ccc;padding:3px 8px;text-align:right}\n"
      "th{background:#f0f0f0}td.ent,th.ent{text-align:left}\n"
      "</style>\n</head>\n<body>\n";
  out += "<h1>" + html_escape(title) + "</h1>\n";
  out += format(
      "<p>%zu bins &times; %.3g s, %zu links, %zu CDN nodes, %zu incidents "
      "detected.</p>\n",
      timeline.bins.size(), timeline.bin_s, timeline.links.size(),
      timeline.cdns.size(), incidents.size());

  // Sessions chart.
  ChartSeries active{"active sessions", {}};
  ChartSeries stalled{"stalled sessions", {}};
  ChartSeries started{"started", {}};
  for (const FleetBin& b : timeline.bins) {
    active.values.push_back(static_cast<double>(b.active_sessions));
    stalled.values.push_back(static_cast<double>(b.stalled_sessions));
    started.values.push_back(static_cast<double>(b.started_sessions));
  }
  out += "<h2>Sessions</h2>\n";
  out += svg_chart("Active / stalled / started per bin",
                   {active, stalled, started}, 1.0);

  // Buffer chart.
  ChartSeries audio{"mean audio buffer (s)", {}};
  ChartSeries video{"mean video buffer (s)", {}};
  ChartSeries imbalance{"mean |A-V| (s)", {}};
  for (const FleetBin& b : timeline.bins) {
    const double n = b.samples > 0 ? static_cast<double>(b.samples) : 1.0;
    audio.values.push_back(static_cast<double>(b.audio_level_sum_us) / 1e6 / n);
    video.values.push_back(static_cast<double>(b.video_level_sum_us) / 1e6 / n);
    imbalance.values.push_back(static_cast<double>(b.imbalance_sum_us) / 1e6 / n);
  }
  out += "<h2>Buffers</h2>\n";
  out += svg_chart("Mean buffer levels per bin", {audio, video, imbalance}, 1.0);

  // Link utilization chart.
  if (!timeline.links.empty()) {
    std::vector<ChartSeries> link_series;
    for (const LinkSeries& link : timeline.links) {
      ChartSeries s{link.name + " busy", {}};
      for (const LinkBin& b : link.bins) {
        s.values.push_back(static_cast<double>(b.busy_us) / 1e6 / timeline.bin_s);
      }
      link_series.push_back(std::move(s));
    }
    out += "<h2>Links</h2>\n";
    out += svg_chart("Busy fraction per link per bin", link_series, 1.0);
  }

  // CDN hit-ratio chart.
  if (!timeline.cdns.empty()) {
    std::vector<ChartSeries> cdn_series;
    for (const CdnSeries& cdn : timeline.cdns) {
      const std::string name = cdn.link < timeline.links.size()
                                   ? timeline.links[cdn.link].name
                                   : format("link-%zu", cdn.link);
      ChartSeries s{name + " hit ratio", {}};
      for (const CdnBin& b : cdn.bins) {
        const std::uint64_t total = b.hits + b.misses;
        s.values.push_back(total > 0 ? static_cast<double>(b.hits) /
                                           static_cast<double>(total)
                                     : 0.0);
      }
      cdn_series.push_back(std::move(s));
    }
    out += "<h2>CDN</h2>\n";
    out += svg_chart("Edge hit ratio per node per bin", cdn_series, 1.0);
  }

  // Incident table.
  out += "<h2>Incidents</h2>\n";
  if (incidents.empty()) {
    out += "<p>No incidents detected.</p>\n";
  } else {
    out +=
        "<table>\n<tr><th class=\"ent\">type</th><th class=\"ent\">entity</th>"
        "<th>start (s)</th><th>end (s)</th><th>duration (s)</th>"
        "<th>peak</th><th>peak bin</th></tr>\n";
    for (const Incident& incident : incidents) {
      out += format(
          "<tr><td class=\"ent\">%s</td><td class=\"ent\">%s</td>"
          "<td>%.1f</td><td>%.1f</td><td>%.1f</td><td>%.3f</td>"
          "<td>%lld</td></tr>\n",
          incident_type_name(incident.type),
          html_escape(incident.entity).c_str(), incident.start_s,
          incident.end_s, incident.end_s - incident.start_s, incident.peak,
          static_cast<long long>(incident.peak_bin));
    }
    out += "</table>\n";
  }
  out += "</body>\n</html>\n";
  return out;
}

}  // namespace demuxabr::obs
