#include "sim/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "util/strings.h"

namespace demuxabr {

void SessionLog::begin(int chunks, bool minimal_log) {
  total_chunks = chunks;
  minimal = minimal_log;
  if (minimal) return;
  const auto slots = static_cast<std::size_t>(std::max(0, chunks));
  video_selection.assign(slots, "");
  audio_selection.assign(slots, "");
}

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

void SessionLog::record_download(const TrackInfo& track, int chunk_index,
                                 std::int64_t bytes, double start_t, double end_t) {
  totals.downloaded_bytes += bytes;
  ++totals.download_records;
  const bool video = track.is_video();
  int& chunks = video ? totals.video_chunks : totals.audio_chunks;
  int& switches = video ? totals.video_switches : totals.audio_switches;
  double& kbps_sum = video ? totals.video_kbps_sum : totals.audio_kbps_sum;
  double& last_kbps = video ? totals.last_video_kbps : totals.last_audio_kbps;
  const TrackInfo*& last_track = video ? last_video_track_ : last_audio_track_;
  const double kbps = track.avg_kbps;
  if (chunks > 0 && &track != last_track) {
    ++switches;
    totals.switch_cost_kbps += std::abs(kbps - last_kbps);
  }
  kbps_sum += kbps;
  ++chunks;
  last_track = &track;
  last_kbps = kbps;
  if (minimal) return;
  downloads.push_back({track.type, track.id, chunk_index, bytes, start_t, end_t});
  std::vector<std::string>& selection = video ? video_selection : audio_selection;
  assert(chunk_index >= 0 && static_cast<std::size_t>(chunk_index) < selection.size());
  selection[static_cast<std::size_t>(chunk_index)] = track.id;
}

void SessionLog::record_abandoned(const DownloadRecord& record) {
  totals.wasted_bytes += record.bytes;
  ++totals.abandoned_records;
  if (!minimal) abandoned.push_back(record);
}

void SessionLog::record_stall(double start_t, double end_t) {
  totals.stall_s += end_t - start_t;
  ++totals.stall_events;
  if (!minimal) stalls.push_back({start_t, end_t});
}

void SessionLog::record_buffer_levels(double t, double audio_s, double video_s) {
  if (totals.have_sample) {
    const double dt = t - totals.last_sample_t;
    if (dt > 0.0) {
      totals.imbalance_integral += totals.last_abs_imbalance_s * dt;
      totals.imbalance_span_s += dt;
    }
  }
  totals.last_sample_t = t;
  totals.last_abs_imbalance_s = std::abs(audio_s - video_s);
  totals.have_sample = true;
}

double SessionLog::mean_buffer_imbalance_s() const {
  return totals.imbalance_span_s > 0.0
             ? totals.imbalance_integral / totals.imbalance_span_s
             : 0.0;
}

QoeReport compute_qoe(const SessionLog& log, const std::vector<AvCombination>* allowed) {
  const SessionTotals& t = log.totals;
  const int chunks = log.total_chunks;
  QoeReport report;
  report.startup_delay_s = log.startup_delay_s;
  report.total_stall_s = log.total_stall_s();
  report.stall_count = static_cast<int>(log.stall_count());
  report.video_switches = t.video_switches;
  report.audio_switches = t.audio_switches;
  // Fill boundary: a type that stopped short of the last slot pays one more
  // switch there, costing its last bitrate.
  double switch_cost = t.switch_cost_kbps;
  if (t.video_chunks > 0 && t.video_chunks < chunks) {
    ++report.video_switches;
    switch_cost += t.last_video_kbps;
  }
  if (t.audio_chunks > 0 && t.audio_chunks < chunks) {
    ++report.audio_switches;
    switch_cost += t.last_audio_kbps;
  }
  // Seeks can download a slot twice; every download then counts once.
  const int n = std::max({chunks, t.video_chunks, t.audio_chunks});
  if (n > 0) {
    report.avg_video_kbps = t.video_kbps_sum / static_cast<double>(n);
    report.avg_audio_kbps = t.audio_kbps_sum / static_cast<double>(n);
  }

  // Linear QoE: per-chunk bitrate utility minus penalties, normalized per
  // chunk so scores are comparable across content lengths.
  const double utility = t.video_kbps_sum + kQoeAudioWeight * t.audio_kbps_sum;
  const double penalty = kQoeStallPenaltyPerS * report.total_stall_s +
                         kQoeStartupPenaltyPerS * report.startup_delay_s +
                         kQoeSwitchPenaltyKbps * switch_cost;
  report.qoe_score = n > 0 ? (utility - penalty) / static_cast<double>(n) : 0.0;

  // The per-slot terms walk the selection slots (full logs only).
  const std::size_t slots =
      std::min(log.video_selection.size(), log.audio_selection.size());
  for (std::size_t i = 0; i < slots; ++i) {
    const std::string& video = log.video_selection[i];
    const std::string& audio = log.audio_selection[i];
    if (i > 0 &&
        (video != log.video_selection[i - 1] || audio != log.audio_selection[i - 1])) {
      ++report.combo_switches;
    }
    if (allowed != nullptr && !video.empty() && !audio.empty() &&
        !contains_combination(*allowed, video, audio)) {
      ++report.off_manifest_chunks;
    }
  }
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
