#include "core/mpc_abr.h"

#include <algorithm>
#include <cassert>

namespace demuxabr {

MpcJointAbr::MpcJointAbr(std::vector<ComboView> allowed, MpcConfig config)
    : JointController(std::move(allowed), /*use_average_bandwidth=*/true), config_(config) {
  assert(config_.horizon_chunks > 0);
}

double MpcJointAbr::plan_score(std::size_t index, double estimate_kbps,
                               double buffer_s, double chunk_duration_s,
                               std::size_t previous_index) const {
  assert(index < allowed_.size());
  const double throughput = kThroughputDiscount * estimate_kbps;
  if (throughput <= 0.0) return index == 0 ? 0.0 : -1e18;

  const double requirement = requirement_kbps(index);
  // Download time of one chunk of this combination under the discounted
  // estimate. The session downloads audio and video back to back, so the
  // aggregate requirement over the aggregate pipe is the right plant model
  // for a shared bottleneck.
  const double chunk_download_s = requirement * chunk_duration_s / throughput;

  double buffer = buffer_s;
  double rebuffer_s = 0.0;
  for (int step = 0; step < config_.horizon_chunks; ++step) {
    buffer -= chunk_download_s;
    if (buffer < 0.0) {
      rebuffer_s += -buffer;
      buffer = 0.0;
    }
    buffer = std::min(buffer + chunk_duration_s, kMaxBufferS);
  }

  const double horizon = static_cast<double>(config_.horizon_chunks);
  const double quality = requirement;  // aggregate kbps as the quality proxy
  const double switch_cost =
      std::abs(requirement - requirement_kbps(previous_index));
  return horizon * quality - config_.rebuffer_penalty_kbps * rebuffer_s -
         config_.switch_penalty * switch_cost;
}

std::size_t MpcJointAbr::decide(double estimate_kbps, double min_buffer_s,
                                double chunk_duration_s) {
  if (estimate_kbps <= 0.0) {
    current_ = 0;
    initialized_ = true;
    return current_;
  }
  const std::size_t previous = initialized_ ? current_ : 0;
  std::size_t best = 0;
  double best_score = plan_score(0, estimate_kbps, min_buffer_s, chunk_duration_s,
                                 previous);
  for (std::size_t i = 1; i < allowed_.size(); ++i) {
    const double score =
        plan_score(i, estimate_kbps, min_buffer_s, chunk_duration_s, previous);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  current_ = best;
  initialized_ = true;
  return current_;
}

}  // namespace demuxabr
