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

/// Scalar aggregates every SessionLog recording call folds in, in both log
/// modes. They are the only source of the log's counts, sums and QoE terms,
/// so a minimal log (million-client streaming fleets drop the vectors)
/// answers exactly what its full-log twin does.
struct SessionTotals {
  std::int64_t downloaded_bytes = 0;
  std::int64_t download_records = 0;  ///< components (audio+video) completed
  std::int64_t abandoned_records = 0;
  std::int64_t wasted_bytes = 0;
  double stall_s = 0.0;
  std::int64_t stall_events = 0;

  /// Selection aggregates in completion order: bitrate sums over completed
  /// downloads, per-type switch counts and the |Δkbps| switch cost between
  /// consecutive downloads of a type. Without seeks every selection slot
  /// fills once, in order, so this is the walk over the filled slots.
  double video_kbps_sum = 0.0;
  double audio_kbps_sum = 0.0;
  int video_chunks = 0;  ///< completed video downloads
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
  /// Minimal-log mode (SessionConfig::minimal_log): the selection vectors
  /// and every record vector but `seeks` stay empty; `totals`, `seeks` and
  /// the scalar fields are populated. O(1) memory per session.
  bool minimal = false;

  /// Folded by the record_* calls below; read by every count, sum and QoE
  /// term in both modes.
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

  /// Per-chunk selected track ids, indexed by chunk position: the last track
  /// downloaded for the slot, "" when none was.
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

  /// Size a fresh log for `chunks` chunk positions in the given mode: a full
  /// log gets one empty selection slot per position.
  void begin(int chunks, bool minimal_log);

  /// Preallocate the record vectors and time series from the session shape:
  /// `total_chunks` bounds the download/selection vectors, and the series
  /// are sized for `expected_duration_s` of samples every `delta_s`. Purely
  /// a capacity hint — logs grow past it (stalls extend wall time) without
  /// reallocation churn on the common path.
  void reserve_for(int chunks, double expected_duration_s, double delta_s);

  // Recording calls: each folds `totals` and, unless the log is minimal,
  // appends the matching record (and fills the selection slot). Seeks are
  // recorded in both modes.

  /// One completed download component of `track` (a muxed chunk records two).
  /// `track` must stay at one address while the log records: switches are
  /// detected by comparing it with the type's previous track.
  void record_download(const TrackInfo& track, int chunk_index, std::int64_t bytes,
                       double start_t, double end_t);
  /// A download cancelled mid-flight; `record.bytes` is the wasted transfer.
  void record_abandoned(const DownloadRecord& record);
  /// A closed stall.
  void record_stall(double start_t, double end_t);
  /// Both buffer levels at tick time `t`: folds the A/V imbalance integral
  /// (left-endpoint rule). Series are recorded separately.
  void record_buffer_levels(double t, double audio_s, double video_s);
  void record_seek(const SeekRecord& seek) { seeks.push_back(seek); }

  // Count and sum accessors: `totals` in both log modes.
  [[nodiscard]] double total_stall_s() const { return totals.stall_s; }
  [[nodiscard]] std::size_t stall_count() const {
    return static_cast<std::size_t>(totals.stall_events);
  }
  [[nodiscard]] std::int64_t total_downloaded_bytes() const {
    return totals.downloaded_bytes;
  }
  /// Bytes transferred by abandoned (cancelled) downloads.
  [[nodiscard]] std::int64_t wasted_bytes() const { return totals.wasted_bytes; }
  /// Completed download components (== downloads.size() in full-log mode).
  [[nodiscard]] std::size_t download_count() const {
    return static_cast<std::size_t>(totals.download_records);
  }
  [[nodiscard]] std::size_t abandoned_count() const {
    return static_cast<std::size_t>(totals.abandoned_records);
  }
  /// Time-weighted mean |audio − video| buffer level over the session
  /// (§3.4's imbalance metric), from `totals` in both modes; 0 on no span.
  [[nodiscard]] double mean_buffer_imbalance_s() const;
  /// Distinct combination labels selected over the session, in first-use order.
  [[nodiscard]] std::vector<std::string> selected_combination_labels() const;

 private:
  /// Last-recorded track per type, for switch detection. Track ids are
  /// unique per type and a session records stable manifest TrackInfo
  /// addresses, so pointer inequality is id inequality — no string compare
  /// on the per-chunk path. Compared while recording, never dereferenced.
  const TrackInfo* last_video_track_ = nullptr;
  const TrackInfo* last_audio_track_ = nullptr;
};

/// Weights of the QoE score. The linear-form score follows the common
/// formulation (e.g. MPC / Pensieve): bitrate utility minus rebuffering and
/// switching penalties, with audio weighted relative to video.
inline constexpr double kQoeStallPenaltyPerS = 3000.0;  ///< kbps-equivalents per s
inline constexpr double kQoeStartupPenaltyPerS = 1000.0;
inline constexpr double kQoeSwitchPenaltyKbps = 1.0;  ///< per kbps of bitrate change
inline constexpr double kQoeAudioWeight = 1.0;        ///< audio bitrate utility weight

struct QoeReport {
  double startup_delay_s = 0.0;
  double total_stall_s = 0.0;
  int stall_count = 0;
  double avg_video_kbps = 0.0;  ///< chunk-weighted average of selected tracks
  double avg_audio_kbps = 0.0;
  int video_switches = 0;
  int audio_switches = 0;
  /// Slots whose (video, audio) pair differs from the previous slot's.
  /// Full logs only (it walks the selection slots): 0 for a minimal log.
  int combo_switches = 0;
  /// Downloaded chunks whose (video, audio) pair is not in the allowed set
  /// (0 when no allowed set was given). §3.5: manifest non-conformance.
  /// Full logs only, like combo_switches; slots missing either track are
  /// skipped, as check_compliance does.
  int off_manifest_chunks = 0;
  double qoe_score = 0.0;
};

/// Compute the QoE report. `allowed` (may be nullptr) is the curated
/// combination list used to count off-manifest selections.
///
/// Every term but the two per-slot ones comes from `log.totals`, so minimal
/// and full logs of one session agree on it: startup, stalls, switches and
/// switch cost, the bitrate averages and the score. A session that ends
/// with unfilled slots pays one more switch per type, costing the type's
/// last bitrate (the drop to nothing at the fill boundary). The averages and
/// the score divide by n = max(total_chunks, video downloads, audio
/// downloads): a seek can download a slot more than once, and then every
/// download counts once.
QoeReport compute_qoe(const SessionLog& log,
                      const std::vector<AvCombination>* allowed = nullptr);

/// Render the per-chunk selection table ("chunk, video, audio, combo") CSV.
std::string selection_csv(const SessionLog& log);

/// Render a compact human-readable summary block.
std::string summarize(const SessionLog& log, const QoeReport& report);

}  // namespace demuxabr
