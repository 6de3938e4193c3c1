// PlayerAdapter: the interface every ABR player model implements.
//
// The simulation engine owns time, the network and the buffers; the player
// owns *decisions*: which (track, chunk) to download next, informed only by
// the ManifestView it was started with and by the download events it
// observes (per-delta progress samples and chunk completions). This split
// mirrors a real player's separation between its streaming engine and its
// ABR logic, and guarantees a model cannot peek at server-side ground truth.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "manifest/view.h"
#include "media/track.h"

namespace demuxabr {

/// Per-interval download progress (the engine emits one per active flow per
/// delta interval; Shaka's 16 KB / 0.125 s filter consumes these).
struct ProgressSample {
  MediaType type = MediaType::kVideo;
  double t0 = 0.0;           ///< interval start
  double t1 = 0.0;           ///< interval end
  std::int64_t bytes = 0;    ///< bytes delivered to this flow in [t0, t1]

  [[nodiscard]] double duration_s() const { return t1 - t0; }
  [[nodiscard]] double throughput_kbps() const {
    return t1 > t0 ? static_cast<double>(bytes) * 8.0 / 1000.0 / (t1 - t0) : 0.0;
  }
};

/// Emitted when a chunk finishes downloading. `start_t` includes the request
/// RTT, so throughput computed from it matches what a real player measures.
/// `track_id` views the originating request's id and is valid only for the
/// duration of the on_chunk_complete callback — copy it to retain it.
struct ChunkCompletion {
  MediaType type = MediaType::kVideo;
  std::string_view track_id;
  int chunk_index = 0;
  std::int64_t bytes = 0;
  double start_t = 0.0;
  double end_t = 0.0;

  [[nodiscard]] double duration_s() const { return end_t - start_t; }
  [[nodiscard]] double throughput_kbps() const {
    return end_t > start_t ? static_cast<double>(bytes) * 8.0 / 1000.0 / (end_t - start_t)
                           : 0.0;
  }
};

/// Client-side state snapshot handed to the player at decision points.
struct PlayerContext {
  double now = 0.0;
  double audio_buffer_s = 0.0;
  double video_buffer_s = 0.0;
  int next_audio_chunk = 0;  ///< next not-yet-downloaded audio chunk index
  int next_video_chunk = 0;
  int total_chunks = 0;
  bool audio_downloading = false;
  bool video_downloading = false;
  bool playing = false;
  double playhead_s = 0.0;

  [[nodiscard]] double buffer_s(MediaType type) const {
    return type == MediaType::kAudio ? audio_buffer_s : video_buffer_s;
  }
  [[nodiscard]] int next_chunk(MediaType type) const {
    return type == MediaType::kAudio ? next_audio_chunk : next_video_chunk;
  }
  [[nodiscard]] bool downloading(MediaType type) const {
    return type == MediaType::kAudio ? audio_downloading : video_downloading;
  }
};

/// What the player wants to download next. Chunks are fetched strictly in
/// order per media type; the player chooses the *track*.
///
/// Muxed mode (Fig 1 left side): one request fetches the combined
/// video+audio chunk object. Set `muxed`, put the video track in `track_id`
/// and the audio track in `audio_track_id`; `type` must be kVideo and both
/// media positions must be aligned (the engine asserts this). On completion
/// both buffers are filled and both positions advance.
struct DownloadRequest {
  MediaType type = MediaType::kVideo;
  std::string track_id;
  int chunk_index = 0;
  bool muxed = false;
  std::string audio_track_id;
};

class PlayerAdapter {
 public:
  virtual ~PlayerAdapter() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before the session starts.
  virtual void start(const ManifestView& view) = 0;

  /// Maximum simultaneous downloads (1 = serial A/V like ExoPlayer,
  /// 2 = concurrent audio+video pipelines like Shaka / dash.js).
  [[nodiscard]] virtual int max_concurrent_downloads() const { return 1; }

  /// Ask for the next download. The engine guarantees at most one in-flight
  /// download per media type. Returning nullopt means "idle for now"
  /// (buffers full enough); the engine re-asks on the next event.
  virtual std::optional<DownloadRequest> next_request(const PlayerContext& ctx) = 0;

  /// Per-delta progress while downloading (optional).
  virtual void on_progress(const ProgressSample& sample) { (void)sample; }

  /// Consulted after each progress sample of an active download; returning
  /// true cancels that download (bytes already transferred are wasted, the
  /// chunk position is re-requested via next_request). This models request
  /// abandonment (dash.js AbandonRequestsRule). `ctx` reflects the state
  /// before cancellation.
  virtual bool should_abandon(const ProgressSample& sample, const PlayerContext& ctx) {
    (void)sample;
    (void)ctx;
    return false;
  }

  /// Chunk finished downloading (optional).
  virtual void on_chunk_complete(const ChunkCompletion& completion,
                                 const PlayerContext& ctx) {
    (void)completion;
    (void)ctx;
  }

  /// Current bandwidth estimate for logging; 0 when the model has none.
  [[nodiscard]] virtual double bandwidth_estimate_kbps() const { return 0.0; }

  /// The buffer level at which `type` stops fetching. Contract: while
  /// neither type downloads, next_request returns nullopt and changes
  /// nothing, as long as every type with chunks left has a buffer at or
  /// above its floor. The answer holds until the next call into the player.
  /// A fleet session skips the poll of any idle tick the floors cover
  /// (DESIGN.md §12). The default, +inf, promises nothing: every tick polls.
  [[nodiscard]] virtual double idle_floor_s(MediaType type) const {
    (void)type;
    return std::numeric_limits<double>::infinity();
  }

  /// False only for a player that overrides neither on_progress nor
  /// should_abandon: progress samples feed it nothing, so a fleet engine
  /// may run its in-flight ticks late, without the samples (DESIGN.md §12).
  /// The default, true, keeps every tick on time.
  [[nodiscard]] virtual bool observes_progress() const { return true; }
};

/// Builds a fresh player per session; must not capture mutable shared state
/// (sweep jobs, fleet replications and shards run on worker threads).
using PlayerFactory = std::function<std::unique_ptr<PlayerAdapter>()>;

}  // namespace demuxabr
