#include "media/vbr_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/rng.h"

namespace demuxabr {
namespace {

std::uint64_t mix_track_seed(std::uint64_t seed, const TrackInfo& track) {
  std::uint64_t h = seed;
  for (char c : track.id) h = h * 1099511628211ULL + static_cast<unsigned char>(c);
  h ^= static_cast<std::uint64_t>(track.declared_kbps * 1000.0);
  return h;
}

}  // namespace

std::vector<ChunkInfo> generate_chunks(const TrackInfo& track, int num_chunks,
                                       double chunk_duration_s,
                                       const VbrModelParams& params) {
  assert(num_chunks > 0);
  assert(chunk_duration_s > 0.0);

  const double sigma =
      track.is_video() ? params.video_sigma : VbrModelParams::kAudioSigma;
  const double avg = track.avg_kbps;
  const double peak = std::max(track.peak_kbps, avg);
  const double floor_kbps = std::max(1.0, avg * VbrModelParams::kMinRatio);

  Rng rng(mix_track_seed(params.seed, track));

  // Draw log-normal bitrate factors around the average, then iteratively
  // rescale + clip so the mean converges to `avg` despite clipping at the
  // peak. A handful of iterations suffices for sigma <= 0.5.
  std::vector<double> kbps(static_cast<std::size_t>(num_chunks));
  const double mu = -0.5 * sigma * sigma;  // E[exp(N(mu, sigma))] == 1
  for (auto& k : kbps) k = avg * rng.lognormal(mu, sigma);

  for (int iter = 0; iter < 12; ++iter) {
    for (auto& k : kbps) k = std::clamp(k, floor_kbps, peak);
    double mean = 0.0;
    for (double k : kbps) mean += k;
    mean /= static_cast<double>(kbps.size());
    if (std::abs(mean - avg) / avg < 1e-4) break;
    const double scale = avg / mean;
    for (auto& k : kbps) k *= scale;
  }
  for (auto& k : kbps) k = std::clamp(k, floor_kbps, peak);

  // Pin the largest chunk to exactly the declared peak so measured peak
  // matches Table 1. To keep the mean intact, shave the surplus off the
  // other chunks proportionally.
  if (num_chunks > 1) {
    auto max_it = std::max_element(kbps.begin(), kbps.end());
    const double surplus = peak - *max_it;
    *max_it = peak;
    if (surplus > 0.0) {
      const double per_other = surplus / static_cast<double>(num_chunks - 1);
      for (auto& k : kbps) {
        if (&k != &*max_it) k = std::max(floor_kbps, k - per_other);
      }
    }
  } else {
    kbps[0] = avg;
  }

  std::vector<ChunkInfo> chunks;
  chunks.reserve(kbps.size());
  for (int i = 0; i < num_chunks; ++i) {
    ChunkInfo c;
    c.index = i;
    c.duration_s = chunk_duration_s;
    c.size_bytes = static_cast<std::int64_t>(
        std::llround(kbps[static_cast<std::size_t>(i)] * 1000.0 / 8.0 * chunk_duration_s));
    chunks.push_back(c);
  }
  return chunks;
}

ChunkStats measure_chunks(const std::vector<ChunkInfo>& chunks) {
  ChunkStats stats;
  if (chunks.empty()) return stats;
  double total_duration = 0.0;
  double min_kbps = chunks.front().bitrate_kbps();
  double max_kbps = min_kbps;
  for (const ChunkInfo& c : chunks) {
    stats.total_bytes += c.size_bytes;
    total_duration += c.duration_s;
    min_kbps = std::min(min_kbps, c.bitrate_kbps());
    max_kbps = std::max(max_kbps, c.bitrate_kbps());
  }
  stats.avg_kbps = static_cast<double>(stats.total_bytes) * 8.0 / 1000.0 / total_duration;
  stats.peak_kbps = max_kbps;
  stats.min_kbps = min_kbps;
  return stats;
}

}  // namespace demuxabr
