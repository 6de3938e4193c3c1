#include "core/balanced_prefetch.h"

#include "players/fetch_order.h"

namespace demuxabr {

BalancedPrefetcher::BalancedPrefetcher(BalancedPrefetchConfig config) : config_(config) {}

std::optional<MediaType> BalancedPrefetcher::next_type(const PlayerContext& ctx) const {
  const bool audio_ok = may_fetch(ctx, MediaType::kAudio, config_.buffer_target_s);
  const bool video_ok = may_fetch(ctx, MediaType::kVideo, config_.buffer_target_s);
  if (!audio_ok && !video_ok) return std::nullopt;
  if (audio_ok && video_ok) {
    // Advance the lagging type; ties prefer video (its chunks are larger,
    // starting it earlier smooths the pipeline).
    return ctx.audio_buffer_s < ctx.video_buffer_s ? MediaType::kAudio
                                                   : MediaType::kVideo;
  }
  // Only one type is eligible. Fetching it is fine unless it is already
  // ahead by more than the imbalance cap AND the other type still has
  // chunks to fetch (then wait for the lagging one to free up).
  const MediaType type = audio_ok ? MediaType::kAudio : MediaType::kVideo;
  const MediaType other = audio_ok ? MediaType::kVideo : MediaType::kAudio;
  const bool other_unfinished = ctx.next_chunk(other) < ctx.total_chunks;
  if (other_unfinished &&
      ctx.buffer_s(type) - ctx.buffer_s(other) >= config_.max_imbalance_s) {
    return std::nullopt;
  }
  return type;
}

}  // namespace demuxabr
