#include "players/bola.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace demuxabr {
namespace {
// dash.js BolaRule constants.
constexpr double kMinimumBufferS = 10.0;
constexpr double kBufferPerLevelS = 2.0;
}  // namespace

Bola::Bola(std::vector<double> bitrates_kbps, double stable_buffer_s)
    : bitrates_kbps_(std::move(bitrates_kbps)) {
  assert(!bitrates_kbps_.empty());
  assert(std::is_sorted(bitrates_kbps_.begin(), bitrates_kbps_.end()));
  assert(bitrates_kbps_.front() > 0.0);

  utilities_.reserve(bitrates_kbps_.size());
  for (double b : bitrates_kbps_) {
    utilities_.push_back(std::log(b / bitrates_kbps_.front()));
  }
  // Shift so the lowest track has utility exactly 1 (dash.js normalization).
  const double shift = 1.0 - utilities_.front();
  for (double& u : utilities_) u += shift;

  buffer_target_s_ = std::max(
      stable_buffer_s,
      kMinimumBufferS + kBufferPerLevelS * static_cast<double>(bitrates_kbps_.size()));
  if (bitrates_kbps_.size() == 1) {
    gp_ = 1.0;  // degenerate single-track ladder
  } else {
    gp_ = (utilities_.back() - 1.0) / (buffer_target_s_ / kMinimumBufferS - 1.0);
  }
  vp_ = kMinimumBufferS / gp_;
}

double Bola::score(std::size_t index, double buffer_s) const {
  return (vp_ * (utilities_[index] + gp_) - buffer_s) / bitrates_kbps_[index];
}

std::size_t Bola::choose(double buffer_s) const {
  std::size_t best = 0;
  double best_score = score(0, buffer_s);
  for (std::size_t i = 1; i < bitrates_kbps_.size(); ++i) {
    const double s = score(i, buffer_s);
    if (s > best_score) {
      best_score = s;
      best = i;
    }
  }
  return best;
}

}  // namespace demuxabr
