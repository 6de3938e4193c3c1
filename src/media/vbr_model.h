// Synthetic VBR encoder model.
//
// The paper's content is a real YouTube clip whose tracks have distinct
// average and peak bitrates (Table 1: e.g. V4 averages 734 kbps but peaks at
// 1190 kbps). We substitute a deterministic generator that produces per-chunk
// sizes whose measured average matches `avg_kbps` (within rounding) and whose
// measured peak matches `peak_kbps` exactly — the two quantities all of the
// paper's observations depend on.
#pragma once

#include <cstdint>
#include <vector>

#include "media/chunk.h"
#include "media/track.h"

namespace demuxabr {

struct VbrModelParams {
  /// Log-normal sigma of the per-chunk bitrate factor. Video is burstier
  /// than audio (audio is near-CBR).
  double video_sigma = 0.35;
  static constexpr double kAudioSigma = 0.02;
  /// Lower clamp on chunk bitrate relative to the track average.
  static constexpr double kMinRatio = 0.35;
  /// RNG seed; the track id is mixed in so tracks decorrelate.
  std::uint64_t seed = 42;
};

/// Generate `num_chunks` chunk sizes for `track`, each `chunk_duration_s`
/// long. Guarantees:
///   * every chunk bitrate is in [kMinRatio * avg, peak];
///   * the maximum chunk bitrate equals the track peak (one chunk is pinned);
///   * the mean chunk bitrate equals the track average within 0.5%.
std::vector<ChunkInfo> generate_chunks(const TrackInfo& track, int num_chunks,
                                       double chunk_duration_s,
                                       const VbrModelParams& params = {});

/// Measured statistics over a chunk list (used to verify Table 1).
struct ChunkStats {
  double avg_kbps = 0.0;
  double peak_kbps = 0.0;
  double min_kbps = 0.0;
  std::int64_t total_bytes = 0;
};
ChunkStats measure_chunks(const std::vector<ChunkInfo>& chunks);

}  // namespace demuxabr
