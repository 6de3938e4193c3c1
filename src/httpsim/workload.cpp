#include "httpsim/workload.h"

#include <cassert>

#include "util/rng.h"

namespace demuxabr {
namespace {

struct UserChoice {
  std::string video_id;
  std::string audio_id;
};

/// Draw the per-user track choices once so both storage modes replay the
/// exact same demand.
std::vector<UserChoice> draw_users(const Content& content, const WorkloadConfig& config) {
  const BitrateLadder& ladder = content.ladder();
  Rng rng(config.seed);
  // Popularity rank: middle rungs most popular for video (index order is a
  // fine proxy for a synthetic population); audio rank 0 = most popular.
  ZipfDistribution video_dist(ladder.video_count(), WorkloadConfig::kZipfExponent);
  ZipfDistribution audio_dist(ladder.audio_count(), WorkloadConfig::kZipfExponent);
  std::vector<UserChoice> users;
  users.reserve(static_cast<std::size_t>(config.num_users));
  for (int u = 0; u < config.num_users; ++u) {
    UserChoice choice;
    choice.video_id = ladder.video()[video_dist.sample(rng)].id;
    choice.audio_id = ladder.audio()[audio_dist.sample(rng)].id;
    users.push_back(std::move(choice));
  }
  return users;
}

}  // namespace

void replay_workload(const Content& content, StorageMode mode,
                     const WorkloadConfig& config, CdnChain& chain) {
  for (const UserChoice& user : draw_users(content, config)) {
    for (int chunk = 0; chunk < content.num_chunks(); ++chunk) {
      if (mode == StorageMode::kMuxed) {
        [[maybe_unused]] const auto result =
            chain.fetch(chunk_object_key(user.video_id + "+" + user.audio_id, chunk));
        assert(result.served_by != CdnChain::ServedBy::kNotFound);
      } else {
        [[maybe_unused]] const auto video_result =
            chain.fetch(chunk_object_key(user.video_id, chunk));
        [[maybe_unused]] const auto audio_result =
            chain.fetch(chunk_object_key(user.audio_id, chunk));
        assert(video_result.served_by != CdnChain::ServedBy::kNotFound &&
               audio_result.served_by != CdnChain::ServedBy::kNotFound);
      }
    }
  }
}

WorkloadResult run_cdn_workload(const Content& content, StorageMode mode,
                                const WorkloadConfig& config) {
  const ObjectCatalog catalog = mode == StorageMode::kDemuxed
                                    ? build_demuxed_catalog(content)
                                    : build_muxed_catalog(content);
  std::int64_t capacity = 0;
  if (config.cache_fraction > 0.0) {
    capacity = static_cast<std::int64_t>(
        static_cast<double>(build_demuxed_catalog(content).total_bytes()) *
        config.cache_fraction);
  }
  CdnChain chain(&catalog, capacity, -1);
  replay_workload(content, mode, config, chain);

  WorkloadResult result;
  result.mode = mode;
  result.cdn = chain.stats();
  result.origin_storage_bytes = catalog.total_bytes();
  result.origin_object_count = catalog.object_count();
  return result;
}

std::vector<WorkloadResult> run_cdn_comparison(const Content& content,
                                               const WorkloadConfig& config) {
  return {run_cdn_workload(content, StorageMode::kDemuxed, config),
          run_cdn_workload(content, StorageMode::kMuxed, config)};
}

}  // namespace demuxabr
