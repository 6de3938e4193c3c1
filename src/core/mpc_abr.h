// MPC-style joint A/V adaptation over the allowed-combination ladder.
//
// The paper's future work (§5) is to "design and implement rate adaptation
// schemes following the suggested practices"; its related work points at the
// control-theoretic MPC formulation [Yin et al., SIGCOMM'15]. This module is
// that scheme, specialized to demuxed A/V: the decision variable is the
// *combination* index (joint selection, §4.2), and the plant model is the
// coupled dual-buffer playback of the session engine.
//
// Following robust MPC practice, the controller evaluates each candidate
// combination held for a lookahead horizon of H chunks, simulating buffer
// evolution under a conservatively discounted throughput estimate, and
// maximizes
//     sum(quality) - w_rebuf * predicted_rebuffering - w_switch * |change|.
#pragma once

#include <cstddef>
#include <vector>

#include "core/joint_abr.h"

namespace demuxabr {

struct MpcConfig {
  int horizon_chunks = 5;
  /// Penalty per predicted rebuffering second, in kbps-equivalents.
  double rebuffer_penalty_kbps = 3000.0;
  /// Penalty per kbps of aggregate-bitrate change between decisions.
  double switch_penalty = 1.0;
};

/// Requirements are declared averages where present (JointController).
class MpcJointAbr : public JointController {
 public:
  /// Throughput discount (robustness margin against estimate error).
  static constexpr double kThroughputDiscount = 0.85;
  /// Buffer level the plan must not assume beyond (prefetch cap).
  static constexpr double kMaxBufferS = 30.0;

  /// `allowed` must be sorted by ascending bandwidth.
  explicit MpcJointAbr(std::vector<ComboView> allowed, MpcConfig config = {});

  /// Decide the combination for the next chunk position.
  /// `estimate_kbps` may be 0 (no estimate yet -> lowest combination).
  std::size_t decide(double estimate_kbps, double min_buffer_s,
                     double chunk_duration_s);
  std::size_t decide(const JointInputs& in) override {
    return decide(in.estimate_kbps, in.min_buffer_s, in.chunk_duration_s);
  }

  /// Exposed for tests: the objective value of holding combination `index`
  /// for the horizon from the given state.
  [[nodiscard]] double plan_score(std::size_t index, double estimate_kbps,
                                  double buffer_s, double chunk_duration_s,
                                  std::size_t previous_index) const;

 private:
  MpcConfig config_;
  bool initialized_ = false;
};

}  // namespace demuxabr
