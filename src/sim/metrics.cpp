#include "sim/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/strings.h"

namespace demuxabr {

void SessionLog::reserve_for(int chunks, double expected_duration_s, double delta_s) {
  const auto chunk_slots = static_cast<std::size_t>(std::max(0, chunks));
  // Demuxed playback downloads one audio + one video record per position.
  downloads.reserve(2 * chunk_slots + 8);
  if (delta_s <= 0.0 || expected_duration_s <= 0.0) return;
  // Series gain one point per delta tick; stalls stretch wall time past the
  // content duration, so leave headroom rather than sizing exactly.
  const auto samples = static_cast<std::size_t>(
      std::min(expected_duration_s * 1.5 / delta_s + 64.0, 4.0e6));
  audio_buffer_s.reserve(samples);
  video_buffer_s.reserve(samples);
  bandwidth_estimate_kbps.reserve(samples);
  achieved_throughput_kbps.reserve(samples);
  // Selection series gain a point per request, not per tick.
  selected_video_kbps.reserve(chunk_slots + 8);
  selected_audio_kbps.reserve(2 * chunk_slots + 8);
}

std::vector<std::string> SessionLog::selected_combination_labels() const {
  std::vector<std::string> labels;
  const std::size_t n = std::min(video_selection.size(), audio_selection.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string label = video_selection[i] + "+" + audio_selection[i];
    if (std::find(labels.begin(), labels.end(), label) == labels.end()) {
      labels.push_back(label);
    }
  }
  return labels;
}

double SessionLog::total_stall_s() const {
  if (minimal) return totals.stall_s;
  double total = 0.0;
  for (const StallEvent& s : stalls) total += s.duration_s();
  return total;
}

std::int64_t SessionLog::total_downloaded_bytes() const {
  if (minimal) return totals.downloaded_bytes;
  std::int64_t total = 0;
  for (const DownloadRecord& d : downloads) total += d.bytes;
  return total;
}

std::int64_t SessionLog::wasted_bytes() const {
  if (minimal) return totals.wasted_bytes;
  std::int64_t total = 0;
  for (const DownloadRecord& d : abandoned) total += d.bytes;
  return total;
}

double SessionLog::mean_buffer_imbalance_s() const {
  return totals.imbalance_span_s > 0.0
             ? totals.imbalance_integral / totals.imbalance_span_s
             : 0.0;
}

QoeReport compute_qoe(const SessionLog& log, const BitrateLadder& ladder,
                      const std::vector<AvCombination>* allowed, const QoeConfig& config) {
  QoeReport report;
  report.startup_delay_s = log.startup_delay_s;
  report.total_stall_s = log.total_stall_s();
  report.stall_count = static_cast<int>(log.stall_count());

  if (log.minimal) {
    // Minimal-log sessions carry the selection walk pre-aggregated
    // (SessionTotals) instead of the per-chunk vectors. Reproduce the
    // vector walk's arithmetic exactly for the sequential-download case:
    // the selection vectors would be the first `*_chunks` slots filled and
    // the tail empty (""), so empty slots contribute 0 to the bitrate sums
    // and a partially-watched session pays exactly one extra switch per
    // type at the fill boundary, costing the last selected bitrate.
    // Not supported with seeks (they overwrite earlier slots); fleets
    // don't script seeks. combo_switches needs per-slot alignment of the
    // two types and stays 0 — no fleet aggregate consumes it.
    const SessionTotals& t = log.totals;
    const int chunks = log.total_chunks;
    report.video_switches = t.video_switches;
    report.audio_switches = t.audio_switches;
    double switch_cost = t.switch_cost_kbps;
    if (t.video_chunks > 0 && t.video_chunks < chunks) {
      ++report.video_switches;
      switch_cost += t.last_video_kbps;
    }
    if (t.audio_chunks > 0 && t.audio_chunks < chunks) {
      ++report.audio_switches;
      switch_cost += t.last_audio_kbps;
    }
    if (chunks > 0) {
      report.avg_video_kbps = t.video_kbps_sum / static_cast<double>(chunks);
      report.avg_audio_kbps = t.audio_kbps_sum / static_cast<double>(chunks);
    }
    const double utility = t.video_kbps_sum + config.audio_weight * t.audio_kbps_sum;
    const double penalty = config.stall_penalty_per_s * report.total_stall_s +
                           config.startup_penalty_per_s * report.startup_delay_s +
                           config.switch_penalty_kbps * switch_cost;
    report.qoe_score =
        chunks > 0 ? (utility - penalty) / static_cast<double>(chunks) : 0.0;
    return report;
  }

  auto kbps_of = [&ladder](const std::string& id) {
    const TrackInfo* track = ladder.find(id);
    return track != nullptr ? track->avg_kbps : 0.0;
  };

  const std::size_t chunks =
      std::min(log.video_selection.size(), log.audio_selection.size());
  double video_sum = 0.0;
  double audio_sum = 0.0;
  double switch_cost = 0.0;
  for (std::size_t i = 0; i < chunks; ++i) {
    const double v = kbps_of(log.video_selection[i]);
    const double a = kbps_of(log.audio_selection[i]);
    video_sum += v;
    audio_sum += a;
    if (i > 0) {
      if (log.video_selection[i] != log.video_selection[i - 1]) {
        ++report.video_switches;
        switch_cost += std::abs(v - kbps_of(log.video_selection[i - 1]));
      }
      if (log.audio_selection[i] != log.audio_selection[i - 1]) {
        ++report.audio_switches;
        switch_cost += std::abs(a - kbps_of(log.audio_selection[i - 1]));
      }
      if (log.video_selection[i] != log.video_selection[i - 1] ||
          log.audio_selection[i] != log.audio_selection[i - 1]) {
        ++report.combo_switches;
      }
    }
    if (allowed != nullptr &&
        !contains_combination(*allowed, log.video_selection[i], log.audio_selection[i])) {
      ++report.off_manifest_chunks;
    }
  }
  if (chunks > 0) {
    report.avg_video_kbps = video_sum / static_cast<double>(chunks);
    report.avg_audio_kbps = audio_sum / static_cast<double>(chunks);
  }

  // Linear QoE: per-chunk bitrate utility minus penalties, normalized per
  // chunk so scores are comparable across content lengths.
  const double utility = video_sum + config.audio_weight * audio_sum;
  const double penalty = config.stall_penalty_per_s * report.total_stall_s +
                         config.startup_penalty_per_s * report.startup_delay_s +
                         config.switch_penalty_kbps * switch_cost;
  report.qoe_score =
      chunks > 0 ? (utility - penalty) / static_cast<double>(chunks) : 0.0;
  return report;
}

std::string selection_csv(const SessionLog& log) {
  std::ostringstream out;
  out << "chunk,video,audio,combo\n";
  const std::size_t chunks =
      std::min(log.video_selection.size(), log.audio_selection.size());
  for (std::size_t i = 0; i < chunks; ++i) {
    out << i << ',' << log.video_selection[i] << ',' << log.audio_selection[i] << ','
        << log.video_selection[i] << '+' << log.audio_selection[i] << '\n';
  }
  return out.str();
}

std::string summarize(const SessionLog& log, const QoeReport& report) {
  std::ostringstream out;
  out << format("player=%s completed=%s\n", log.player_name.c_str(),
                log.completed ? "yes" : "NO");
  out << format("  startup=%.2fs stalls=%d rebuffer=%.1fs end=%.1fs\n",
                report.startup_delay_s, report.stall_count, report.total_stall_s,
                log.end_time_s);
  out << format("  avg video=%.0f kbps avg audio=%.0f kbps\n", report.avg_video_kbps,
                report.avg_audio_kbps);
  out << format("  switches: video=%d audio=%d combo=%d off-manifest-chunks=%d\n",
                report.video_switches, report.audio_switches, report.combo_switches,
                report.off_manifest_chunks);
  out << "  combos used:";
  for (const std::string& label : log.selected_combination_labels()) out << ' ' << label;
  out << '\n';
  out << format("  qoe=%.1f\n", report.qoe_score);
  return out.str();
}

}  // namespace demuxabr
