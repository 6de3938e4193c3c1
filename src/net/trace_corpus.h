// Bandwidth-trace corpus: seeded *trace-class* generators behind the
// BandwidthTrace interface (ROADMAP "bandwidth-trace corpus + robustness
// leaderboard"). The paper's §3 experiments run `tc`-shaped synthetic
// patterns; "Understanding video streaming algorithms in the wild" shows
// player rankings flip across real network classes, so the corpus models
// four canonical classes — LTE-like cellular with handoff drops, flaky-wifi
// on/off bursts, long-fat high-BDP pipes with slow oscillation, and
// sawtooth oscillation — each as a family parameterized by one seed.
//
// Every generator draws its class parameters (target mean, burst rates,
// dwell scales, oscillation period…) from declared per-class ranges through
// a single Rng seeded by the caller, then renormalizes the trajectory's
// time-weighted mean onto the sampled target, so each class carries a
// *statistical envelope* — hard rate floor/ceiling, a mean band, a
// coefficient-of-variation band, a boundary-density floor and a maximum
// dwell — that holds for every seed. The envelope is a checkable contract:
// tests/test_net_trace_corpus.cpp asserts it per class over many seeds, and
// the leaderboard engine (experiments/leaderboard.h) validates every trace
// it samples before running players over it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/bandwidth_trace.h"

namespace demuxabr {

/// The statistical contract a trace class guarantees for every seed.
/// All statistics are time-weighted over one period (trace_moments()).
struct TraceEnvelope {
  double floor_kbps = 1.0;            ///< every segment rate >= floor
  double ceil_kbps = 1e9;             ///< every segment rate <= ceiling
  double mean_lo_kbps = 0.0;          ///< time-weighted mean within
  double mean_hi_kbps = 1e9;          ///< [mean_lo, mean_hi]
  double cv_lo = 0.0;                 ///< coefficient of variation within
  double cv_hi = 10.0;                ///< [cv_lo, cv_hi]
  double min_changes_per_min = 0.0;   ///< rate genuinely varies
  double max_dwell_s = 1e9;           ///< no flat stretch longer than this
};

/// Time-weighted statistics of one trace period. For an aperiodic trace the
/// final (infinite) segment is weighted by the mean of the finite segment
/// durations (1 s when it is the only segment), so the numbers stay
/// meaningful for CSV-loaded traces too.
struct TraceMoments {
  double mean_kbps = 0.0;
  double variance = 0.0;  ///< time-weighted population variance [kbps^2]
  double cv = 0.0;        ///< stddev / mean (0 when mean is 0)
  double min_kbps = 0.0;
  double max_kbps = 0.0;
  double changes_per_min = 0.0;  ///< actual rate *changes* (not boundaries)
  double max_dwell_s = 0.0;      ///< longest run of constant rate
  std::size_t segments = 0;
};

TraceMoments trace_moments(const BandwidthTrace& trace);

/// Empty string when `trace` satisfies `envelope`; otherwise a description
/// of the first violation (the tests' and leaderboard's validity gate).
std::string check_envelope(const BandwidthTrace& trace, const TraceEnvelope& envelope);

// --- The four corpus generators. Each returns a periodic trace with
// --- period == duration_s; all parameters are drawn from one Rng(seed).
// --- Each throws std::invalid_argument unless duration_s is finite and
// --- > 0. ---

/// LTE-like cellular: five sticky coverage states (deep fade → excellent)
/// with exponential dwells and multiplicative per-segment fading jitter,
/// punctuated by periodic *handoff drops* — sub-second collapses to tens of
/// kbps as the UE re-attaches — every ~15-35 s.
BandwidthTrace lte_trace(double duration_s, std::uint64_t seed);

/// Flaky wifi: on/off bursts. Long good-throughput bursts alternate with
/// short near-outage gaps (interference / channel contention), both with
/// exponential dwells; burst rates carry multiplicative jitter.
BandwidthTrace flaky_wifi_trace(double duration_s, std::uint64_t seed);

/// Long-fat high-BDP pipe: tens of Mbps with a *slow* sinusoidal capacity
/// oscillation (minutes-scale period) plus small discretization noise — the
/// regime where estimators see an almost-flat but drifting channel.
BandwidthTrace long_fat_trace(double duration_s, std::uint64_t seed);

/// Oscillating sawtooth: capacity ramps linearly from a low floor to k× the
/// floor over tens of seconds, then collapses back and repeats — the
/// adversarial pattern for throughput-EWMA players.
BandwidthTrace oscillating_trace(double duration_s, std::uint64_t seed);

/// One registered trace class: name, envelope contract and generator.
struct TraceClass {
  std::string name;
  std::string description;
  TraceEnvelope envelope;
  BandwidthTrace (*generate)(double duration_s, std::uint64_t seed);
};

/// All corpus classes in canonical order: lte-handoff, flaky-wifi,
/// long-fat, oscillating. The order is load-bearing: the leaderboard's
/// class axis and every ranking table iterate it.
const std::vector<TraceClass>& trace_class_registry();

/// Registry entry by name; nullptr when unknown.
const TraceClass* find_trace_class(const std::string& name);

/// Scale every segment rate by `factor` (> 0), preserving boundaries and
/// periodicity — per-capita trace scaling for fleet runs (a fleet of N
/// clients shares an N×-provisioned pipe so the per-client operating point
/// matches the single-session experiments).
BandwidthTrace scale_trace(const BandwidthTrace& trace, double factor);

}  // namespace demuxabr
