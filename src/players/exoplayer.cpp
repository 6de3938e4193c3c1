#include "players/exoplayer.h"

#include <algorithm>
#include <cassert>

#include "players/exo_combinations.h"

namespace demuxabr {

ExoPlayerModel::ExoPlayerModel(ExoPlayerConfig config)
    : config_(config), meter_(config.meter) {}

std::string ExoPlayerModel::name() const {
  return protocol_ == Protocol::kDash ? "exoplayer-dash" : "exoplayer-hls";
}

void ExoPlayerModel::start(const ManifestView& view) {
  protocol_ = view.protocol;
  combos_.clear();
  current_ = 0;
  selection_initialized_ = false;

  if (view.protocol == Protocol::kDash) {
    // Predetermined combinations from per-track declared bitrates.
    combos_ = exo_predetermined_combinations(view);
    return;
  }

  // HLS: no per-track audio bitrate in the top-level manifest, so all audio
  // renditions are assumed equal quality -> the first listed one is used
  // throughout (§3.2). Each video track is priced at the aggregate BANDWIDTH
  // of the first variant that contains it.
  assert(!view.audio_tracks.empty());
  const std::string fixed_audio = view.audio_tracks.front().id;
  for (const TrackView& video : view.video_tracks) {
    const ComboView* first_variant = nullptr;
    for (const ComboView& combo : view.combos) {  // manifest order
      if (combo.video_id == video.id) {
        first_variant = &combo;
        break;
      }
    }
    if (first_variant == nullptr) continue;  // video track never referenced
    ComboView combo;
    combo.video_id = video.id;
    combo.audio_id = fixed_audio;  // NOT necessarily the variant's audio!
    combo.bandwidth_kbps = first_variant->bandwidth_kbps;
    combo.avg_bandwidth_kbps = first_variant->avg_bandwidth_kbps;
    combos_.push_back(std::move(combo));
  }
  std::stable_sort(combos_.begin(), combos_.end(),
                   [](const ComboView& a, const ComboView& b) {
                     return a.bandwidth_kbps < b.bandwidth_kbps;
                   });
  assert(!combos_.empty());
}

void ExoPlayerModel::update_selection(const PlayerContext& ctx) {
  const double allocatable = config_.bandwidth_fraction * meter_.estimate_kbps();
  std::size_t ideal = 0;
  for (std::size_t i = 0; i < combos_.size(); ++i) {
    if (combos_[i].bandwidth_kbps <= allocatable) ideal = i;
  }
  if (!selection_initialized_) {
    current_ = ideal;
    selection_initialized_ = true;
    return;
  }
  const double buffered = std::min(ctx.audio_buffer_s, ctx.video_buffer_s);
  if (ideal > current_) {
    // Switch up only with enough buffer cushion.
    if (buffered >= config_.min_duration_for_quality_increase_s) current_ = ideal;
  } else if (ideal < current_) {
    // Keep the higher quality when the buffer is already comfortable.
    if (buffered < config_.max_duration_for_quality_decrease_s) current_ = ideal;
  }
}

std::optional<DownloadRequest> ExoPlayerModel::next_request(const PlayerContext& ctx) {
  // Chunk-level A/V synchronization: advance whichever media type is behind,
  // one chunk at a time.
  struct Candidate {
    MediaType type;
    int next_chunk;
    double buffer;
  };
  // At most one candidate per media type: a fixed array keeps this per-event
  // decision off the heap (it runs once per drain poll across the fleet).
  Candidate candidates[2];
  int candidate_count = 0;
  for (MediaType type : {MediaType::kVideo, MediaType::kAudio}) {
    if (ctx.downloading(type)) continue;
    if (ctx.next_chunk(type) >= ctx.total_chunks) continue;
    if (ctx.buffer_s(type) >= config_.max_buffer_s) continue;
    candidates[candidate_count++] = {type, ctx.next_chunk(type), ctx.buffer_s(type)};
  }
  if (candidate_count == 0) return std::nullopt;
  // The historical stable_sort over {video, audio}: audio wins only when
  // strictly behind (earlier chunk, or same chunk with less buffer).
  const Candidate& chosen =
      candidate_count == 2 && (candidates[1].next_chunk < candidates[0].next_chunk ||
                               (candidates[1].next_chunk == candidates[0].next_chunk &&
                                candidates[1].buffer < candidates[0].buffer))
          ? candidates[1]
          : candidates[0];

  update_selection(ctx);
  const ComboView& combo = combos_[current_];
  DownloadRequest request;
  request.type = chosen.type;
  request.track_id = chosen.type == MediaType::kVideo ? combo.video_id : combo.audio_id;
  request.chunk_index = chosen.next_chunk;
  return request;
}

void ExoPlayerModel::on_chunk_complete(const ChunkCompletion& completion,
                                       const PlayerContext& ctx) {
  (void)ctx;
  meter_.on_transfer_end(completion.bytes, completion.duration_s());
}

double ExoPlayerModel::bandwidth_estimate_kbps() const { return meter_.estimate_kbps(); }

}  // namespace demuxabr
