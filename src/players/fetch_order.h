// Which media type a player fetches next. Two rules recur across the
// models: the chunk-level A/V synchronization of both ExoPlayer models
// (§3.5), and the independent per-type pipelines of Shaka and dash.js,
// which serve the emptier buffer first. Neither allocates: both run on
// every poll inside the fleet engines' drain loop.
#pragma once

#include <optional>

#include "sim/player.h"

namespace demuxabr {

/// May `type` start a download: none in flight, chunks left, and its
/// buffer below `target_s`?
inline bool may_fetch(const PlayerContext& ctx, MediaType type, double target_s) {
  return !ctx.downloading(type) && ctx.next_chunk(type) < ctx.total_chunks &&
         ctx.buffer_s(type) < target_s;
}

/// ExoPlayer: of the types that may fetch below `target_s`, the one behind
/// (the earlier next chunk, or the same chunk with less buffer); video on
/// ties.
inline std::optional<MediaType> chunk_synchronized_type(const PlayerContext& ctx,
                                                        double target_s) {
  const bool video = may_fetch(ctx, MediaType::kVideo, target_s);
  const bool audio = may_fetch(ctx, MediaType::kAudio, target_s);
  if (!video && !audio) return std::nullopt;
  const bool audio_behind = ctx.next_audio_chunk < ctx.next_video_chunk ||
                            (ctx.next_audio_chunk == ctx.next_video_chunk &&
                             ctx.audio_buffer_s < ctx.video_buffer_s);
  return audio && (!video || audio_behind) ? MediaType::kAudio : MediaType::kVideo;
}

/// Shaka and dash.js: of the types that may fetch below their own target,
/// the one with less buffer; audio on ties.
inline std::optional<MediaType> lowest_buffer_type(const PlayerContext& ctx,
                                                   double audio_target_s,
                                                   double video_target_s) {
  const bool audio = may_fetch(ctx, MediaType::kAudio, audio_target_s);
  const bool video = may_fetch(ctx, MediaType::kVideo, video_target_s);
  if (!audio && !video) return std::nullopt;
  return video && (!audio || ctx.video_buffer_s < ctx.audio_buffer_s) ? MediaType::kVideo
                                                                      : MediaType::kAudio;
}

}  // namespace demuxabr
