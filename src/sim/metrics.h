// SessionLog: everything a streaming session records, and the QoE report
// derived from it. The log carries the exact series the paper plots:
// selected-track timelines (Figs 2, 3a, 4b, 5a), buffer levels (Figs 3b,
// 5b), bandwidth-estimate evolution (Fig 4), plus stall accounting.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "media/combination.h"
#include "media/track.h"
#include "util/time_series.h"

namespace demuxabr {

struct DownloadRecord {
  MediaType type = MediaType::kVideo;
  std::string track_id;
  int chunk_index = 0;
  std::int64_t bytes = 0;
  double start_t = 0.0;
  double end_t = 0.0;

  [[nodiscard]] double throughput_kbps() const {
    return end_t > start_t ? static_cast<double>(bytes) * 8.0 / 1000.0 / (end_t - start_t)
                           : 0.0;
  }
};

struct StallEvent {
  double start_t = 0.0;
  double end_t = 0.0;
  [[nodiscard]] double duration_s() const { return end_t - start_t; }
};

struct SeekRecord {
  double at_t = 0.0;           ///< wall-clock time of the seek
  double from_position_s = 0.0;
  double to_position_s = 0.0;  ///< snapped to a chunk boundary
};

/// Scalar aggregates a session maintains incrementally at the exact points
/// it appends to the record vectors, so every total is available in
/// minimal-log mode (million-client streaming fleets drop the vectors) and
/// bit-identical to re-deriving it from the full vectors when they exist.
struct SessionTotals {
  std::int64_t downloaded_bytes = 0;
  std::int64_t download_records = 0;  ///< components (audio+video) completed
  std::int64_t abandoned_records = 0;
  std::int64_t wasted_bytes = 0;
  double stall_s = 0.0;
  std::int64_t stall_events = 0;

  /// Selection aggregates in chunk order, mirroring compute_qoe's walk over
  /// the selection vectors: bitrate sums over *filled* slots, per-type
  /// switch counts and the |Δkbps| switch cost between consecutive fills.
  double video_kbps_sum = 0.0;
  double audio_kbps_sum = 0.0;
  int video_chunks = 0;  ///< filled video selection slots
  int audio_chunks = 0;
  int video_switches = 0;
  int audio_switches = 0;
  double switch_cost_kbps = 0.0;
  double last_video_kbps = 0.0;
  double last_audio_kbps = 0.0;

  /// Time-weighted |audio − video| buffer-level integral over the tick
  /// sampling instants (left-endpoint rule), folded whether or not series
  /// are recorded. The only source of mean_buffer_imbalance_s().
  double imbalance_integral = 0.0;
  double imbalance_span_s = 0.0;
  double last_sample_t = 0.0;
  double last_abs_imbalance_s = 0.0;
  bool have_sample = false;
};

struct SessionLog {
  std::string player_name;
  double content_duration_s = 0.0;
  double chunk_duration_s = 0.0;
  int total_chunks = 0;
  /// Minimal-log mode (SessionConfig::minimal_log): the record vectors and
  /// selection vectors below stay empty; only `totals` and the scalar
  /// fields are populated. O(1) memory per session.
  bool minimal = false;

  SessionTotals totals;

  std::vector<DownloadRecord> downloads;
  /// Downloads cancelled mid-flight (request abandonment); `bytes` holds the
  /// wasted transfer.
  std::vector<DownloadRecord> abandoned;
  std::vector<StallEvent> stalls;
  std::vector<SeekRecord> seeks;
  double startup_delay_s = 0.0;
  double end_time_s = 0.0;
  bool completed = false;  ///< playhead reached content end within sim budget

  /// Per-chunk selected track ids, indexed by chunk position.
  std::vector<std::string> video_selection;
  std::vector<std::string> audio_selection;

  /// Time series (wall-clock time on the x axis). Solo sessions only
  /// (SessionConfig::record_series): fleet sessions leave all six empty.
  TimeSeries video_buffer_s;
  TimeSeries audio_buffer_s;
  TimeSeries bandwidth_estimate_kbps;
  /// Bytes actually delivered across all flows per sampling interval,
  /// expressed as kbps — the link-utilization series (compare against the
  /// trace to see idle/wasted capacity).
  TimeSeries achieved_throughput_kbps;
  TimeSeries selected_video_kbps;  ///< avg bitrate of the selected video track
  TimeSeries selected_audio_kbps;

  /// Preallocate the record vectors and time series from the session shape:
  /// `total_chunks` bounds the download/selection vectors, and the series
  /// are sized for `expected_duration_s` of samples every `delta_s`. Purely
  /// a capacity hint — logs grow past it (stalls extend wall time) without
  /// reallocation churn on the common path.
  void reserve_for(int chunks, double expected_duration_s, double delta_s);

  // Count and sum accessors answer from the record vectors in full-log mode
  // (hand-built test logs never touch `totals`) and from the choke-point
  // aggregates in minimal mode. For session-produced logs the two are
  // bit-identical: the totals accumulate the same values in the same order
  // the vectors record them.
  [[nodiscard]] double total_stall_s() const;
  [[nodiscard]] std::size_t stall_count() const {
    return minimal ? static_cast<std::size_t>(totals.stall_events) : stalls.size();
  }
  [[nodiscard]] std::int64_t total_downloaded_bytes() const;
  /// Bytes transferred by abandoned (cancelled) downloads.
  [[nodiscard]] std::int64_t wasted_bytes() const;
  /// Completed download records (== downloads.size() in full-log mode).
  [[nodiscard]] std::size_t download_count() const {
    return minimal ? static_cast<std::size_t>(totals.download_records)
                   : downloads.size();
  }
  [[nodiscard]] std::size_t abandoned_count() const {
    return minimal ? static_cast<std::size_t>(totals.abandoned_records)
                   : abandoned.size();
  }
  /// Time-weighted mean |audio − video| buffer level over the session
  /// (§3.4's imbalance metric), from `totals` in both modes; 0 on no span.
  [[nodiscard]] double mean_buffer_imbalance_s() const;
  /// Distinct combination labels selected over the session, in first-use order.
  [[nodiscard]] std::vector<std::string> selected_combination_labels() const;
};

/// Tunables of the QoE score. The linear-form score follows the common
/// formulation (e.g. MPC / Pensieve): bitrate utility minus rebuffering and
/// switching penalties, with audio weighted relative to video.
struct QoeConfig {
  double stall_penalty_per_s = 3000.0;  ///< kbps-equivalents per stall second
  double startup_penalty_per_s = 1000.0;
  double switch_penalty_kbps = 1.0;     ///< per kbps of bitrate change
  double audio_weight = 1.0;            ///< audio bitrate utility weight
};

struct QoeReport {
  double startup_delay_s = 0.0;
  double total_stall_s = 0.0;
  int stall_count = 0;
  double avg_video_kbps = 0.0;  ///< chunk-weighted average of selected tracks
  double avg_audio_kbps = 0.0;
  int video_switches = 0;
  int audio_switches = 0;
  int combo_switches = 0;
  /// Chunks whose (video, audio) pair is not in the allowed set (0 when no
  /// allowed set was given). §3.5: manifest non-conformance.
  int off_manifest_chunks = 0;
  double qoe_score = 0.0;
};

/// Compute the QoE report. `allowed` (may be nullptr) is the curated
/// combination list used to count off-manifest selections. Selected-track
/// bitrates are looked up in `ladder` (the actual track averages).
QoeReport compute_qoe(const SessionLog& log, const BitrateLadder& ladder,
                      const std::vector<AvCombination>* allowed = nullptr,
                      const QoeConfig& config = {});

/// Render the per-chunk selection table ("chunk, video, audio, combo") CSV.
std::string selection_csv(const SessionLog& log);

/// Render a compact human-readable summary block.
std::string summarize(const SessionLog& log, const QoeReport& report);

}  // namespace demuxabr
