// Statistical/property battery for the bandwidth-trace corpus
// (net/trace_corpus.h), in four tiers:
//
//  1. Registry sanity: canonical class order, lookup, distinct generators.
//  2. Per-class properties over many seeds: the declared statistical
//     envelope holds (rate floor/ceiling, mean band, CV band, boundary
//     density, max dwell), generation is seed-deterministic (same seed →
//     byte-identical segments; different seeds → different traces),
//     period == requested duration, and the `next_change_after` /
//     `rate_kbps` boundary walk obeys the renormalized-reduction
//     invariants pinned in PR 5 (strictly increasing boundaries, rate
//     constant between boundaries, periodic wrap agreement).
//  3. Differential: every corpus trace behaves bit-identically through the
//     plain single-link oracle (link_oracle.h) and a one-hop Channel.
//  4. CSV: to_csv ↔ from_csv round-trips corpus traces exactly (%.17g),
//     the new period_s parameter restores periodicity, and a seeded
//     mutation fuzzer over corpus CSVs always returns Result errors —
//     never crashes — on malformed input.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "link_oracle.h"
#include "net/topology.h"
#include "net/trace_corpus.h"
#include "util/rng.h"
#include "util/strings.h"

namespace demuxabr {
namespace {

constexpr double kDuration = 300.0;

std::string trace_bytes(const BandwidthTrace& trace) {
  std::string out = format("period=%.17g;", trace.period_s());
  for (const auto& s : trace.segments()) {
    out += format("%.17g:%.17g;", s.start_s, s.kbps);
  }
  return out;
}

// --- 1. Registry sanity. ---

TEST(TraceCorpus, RegistryHasCanonicalOrder) {
  const auto& registry = trace_class_registry();
  ASSERT_EQ(registry.size(), 4u);
  EXPECT_EQ(registry[0].name, "lte-handoff");
  EXPECT_EQ(registry[1].name, "flaky-wifi");
  EXPECT_EQ(registry[2].name, "long-fat");
  EXPECT_EQ(registry[3].name, "oscillating");
  for (const TraceClass& tc : registry) {
    EXPECT_FALSE(tc.description.empty());
    ASSERT_NE(tc.generate, nullptr);
    EXPECT_EQ(find_trace_class(tc.name), &tc);
  }
  EXPECT_EQ(find_trace_class("no-such-class"), nullptr);
}

TEST(TraceCorpus, GeneratorsAreDistinct) {
  std::set<std::string> fingerprints;
  for (const TraceClass& tc : trace_class_registry()) {
    fingerprints.insert(trace_bytes(tc.generate(kDuration, 7)));
  }
  EXPECT_EQ(fingerprints.size(), trace_class_registry().size());
}

// --- 2. Per-class statistical properties. ---

class TraceCorpusClass : public testing::TestWithParam<std::size_t> {
 protected:
  const TraceClass& cls() const { return trace_class_registry()[GetParam()]; }
};

TEST_P(TraceCorpusClass, EnvelopeHoldsAcrossSeedsAndDurations) {
  for (const double duration : {180.0, 300.0, 480.0}) {
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
      const BandwidthTrace trace = cls().generate(duration, seed);
      EXPECT_EQ(check_envelope(trace, cls().envelope), "")
          << cls().name << " seed " << seed << " duration " << duration;
      EXPECT_DOUBLE_EQ(trace.period_s(), duration);
    }
  }
}

TEST_P(TraceCorpusClass, SameSeedIsByteIdenticalDifferentSeedIsNot) {
  std::set<std::string> distinct;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const std::string a = trace_bytes(cls().generate(kDuration, seed));
    const std::string b = trace_bytes(cls().generate(kDuration, seed));
    EXPECT_EQ(a, b) << cls().name << " seed " << seed;
    distinct.insert(a);
  }
  EXPECT_EQ(distinct.size(), 12u) << cls().name;
}

TEST_P(TraceCorpusClass, MomentsMatchEnvelopeGate) {
  // trace_moments is the envelope's measurement instrument: sanity-pin the
  // two against each other on one concrete trace.
  const BandwidthTrace trace = cls().generate(kDuration, 3);
  const TraceMoments m = trace_moments(trace);
  const TraceEnvelope& e = cls().envelope;
  EXPECT_GE(m.min_kbps, e.floor_kbps);
  EXPECT_LE(m.max_kbps, e.ceil_kbps);
  EXPECT_GE(m.mean_kbps, e.mean_lo_kbps);
  EXPECT_LE(m.mean_kbps, e.mean_hi_kbps);
  EXPECT_GE(m.cv, e.cv_lo);
  EXPECT_LE(m.cv, e.cv_hi);
  EXPECT_GE(m.changes_per_min, e.min_changes_per_min);
  EXPECT_LE(m.max_dwell_s, e.max_dwell_s);
  EXPECT_GT(m.segments, 4u);
  EXPECT_GT(m.variance, 0.0);
}

TEST_P(TraceCorpusClass, BoundaryWalkObeysReductionInvariants) {
  // The PR-5 contract: next_change_after is strictly increasing along a
  // boundary walk, the rate is constant on the open interval between
  // consecutive boundaries, and the walk makes real progress across many
  // periods without stalling.
  const BandwidthTrace trace = cls().generate(kDuration, 11);
  double t = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double next = trace.next_change_after(t);
    ASSERT_GT(next, t) << cls().name << " stalled at t=" << t;
    ASSERT_LT(next, std::numeric_limits<double>::infinity());
    // Constant on (t, next): probe the midpoint against the entry rate.
    const double mid = t + (next - t) * 0.5;
    EXPECT_EQ(trace.rate_kbps(mid), trace.rate_kbps(t + (next - t) * 0.25))
        << cls().name << " rate changed inside (" << t << ", " << next << ")";
    t = next;
  }
  EXPECT_GT(t, 2.0 * kDuration) << cls().name << " walk covered < 2 periods";
}

TEST_P(TraceCorpusClass, PeriodicWrapMatchesFirstPeriod) {
  // rate(t + k*period) == rate(t): sample both at awkward offsets several
  // periods out, where the reduction's floating-point slack matters most.
  const BandwidthTrace trace = cls().generate(kDuration, 5);
  const double period = trace.period_s();
  Rng rng(99);
  for (int i = 0; i < 400; ++i) {
    const double t = rng.uniform(0.0, period);
    for (const double k : {1.0, 3.0, 17.0}) {
      EXPECT_EQ(trace.rate_kbps(t), trace.rate_kbps(t + k * period))
          << cls().name << " t=" << t << " k=" << k;
    }
  }
  // The wrap boundary itself: just before the period the last segment's
  // rate holds; at the period the first segment's rate returns.
  EXPECT_EQ(trace.rate_kbps(period), trace.rate_kbps(0.0));
  EXPECT_EQ(trace.rate_kbps(period * 2.0), trace.rate_kbps(0.0));
}

TEST_P(TraceCorpusClass, AverageOverOnePeriodMatchesMoments) {
  const BandwidthTrace trace = cls().generate(kDuration, 8);
  const TraceMoments m = trace_moments(trace);
  // average_kbps integrates via the boundary walk; trace_moments weights
  // segments directly. Agreement ties the two code paths together.
  EXPECT_NEAR(trace.average_kbps(0.0, trace.period_s()), m.mean_kbps,
              1e-6 * m.mean_kbps);
}

TEST_P(TraceCorpusClass, ScaleTracePreservesShape) {
  const BandwidthTrace trace = cls().generate(kDuration, 2);
  const BandwidthTrace scaled = scale_trace(trace, 8.0);
  ASSERT_EQ(scaled.segments().size(), trace.segments().size());
  EXPECT_DOUBLE_EQ(scaled.period_s(), trace.period_s());
  for (std::size_t i = 0; i < trace.segments().size(); ++i) {
    EXPECT_DOUBLE_EQ(scaled.segments()[i].start_s, trace.segments()[i].start_s);
    EXPECT_DOUBLE_EQ(scaled.segments()[i].kbps, trace.segments()[i].kbps * 8.0);
  }
  const TraceMoments m = trace_moments(trace);
  const TraceMoments ms = trace_moments(scaled);
  EXPECT_NEAR(ms.mean_kbps, m.mean_kbps * 8.0, 1e-9 * ms.mean_kbps);
  EXPECT_NEAR(ms.cv, m.cv, 1e-12);  // scaling is CV-invariant
}

// --- 3. Link oracle / one-hop Channel differential. ---

TEST_P(TraceCorpusClass, LinkAndOneHopPathChannelAreBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(testing::Message() << cls().name << " seed " << seed);
    const BandwidthTrace trace = cls().generate(kDuration, seed);
    Link link(trace);
    Topology topo(TopologySpec::single(trace));
    Channel& path = topo.path_channel(0);

    Rng rng(seed * 1303);
    double now = 0.0;
    int active = 0;
    for (int e = 0; e < 80; ++e) {
      now += rng.exponential(0.5);
      const bool add = active == 0 || rng.bernoulli(0.5);
      if (add) {
        EXPECT_EQ(link.add_flow(now), path.add_flow(now));
        ++active;
      } else {
        link.remove_flow(now);
        path.remove_flow(now);
        --active;
      }
      const double probe = now + rng.uniform(0.0, 2.0 * kDuration);
      EXPECT_EQ(link.service_at(probe), path.service_at(probe));
      const double target = link.service_at(now) + rng.uniform(1.0, 50000.0);
      EXPECT_EQ(link.time_when_service_reaches(target),
                path.time_when_service_reaches(target));
      EXPECT_EQ(link.active_flows(), path.active_flows());
    }
    while (active-- > 0) {
      now += 0.25;
      link.remove_flow(now);
      path.remove_flow(now);
    }
    link.finalize(now + 2.0);
    topo.finalize(now + 2.0);
    const LinkStats stats = topo.link_stats()[0];
    EXPECT_EQ(link.busy_s(), stats.busy_s);
    EXPECT_EQ(link.flow_seconds(), stats.flow_seconds);
    EXPECT_EQ(link.offered_kbit(), stats.offered_kbit);
    EXPECT_EQ(link.delivered_kbit(), stats.delivered_kbit);
    EXPECT_EQ(link.peak_flows(), stats.peak_flows);
  }
}

INSTANTIATE_TEST_SUITE_P(AllClasses, TraceCorpusClass,
                         testing::Range<std::size_t>(0, 4),
                         [](const testing::TestParamInfo<std::size_t>& param_info) {
                           std::string name =
                               trace_class_registry()[param_info.param].name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- 4. CSV round-trip + mutation fuzz. ---

TEST(TraceCorpusCsv, RoundTripIsExactForEveryClass) {
  for (const TraceClass& tc : trace_class_registry()) {
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const BandwidthTrace original = tc.generate(kDuration, seed);
      const auto reloaded =
          BandwidthTrace::from_csv(original.to_csv(), original.period_s());
      ASSERT_TRUE(reloaded.ok()) << tc.name << ": " << reloaded.error();
      // %.17g round-trips doubles exactly: byte-identical segment sets.
      EXPECT_EQ(trace_bytes(*reloaded), trace_bytes(original)) << tc.name;
    }
  }
}

TEST(TraceCorpusCsv, AperiodicRoundTripDropsPeriodOnly) {
  const BandwidthTrace original = lte_trace(kDuration, 4);
  const auto reloaded = BandwidthTrace::from_csv(original.to_csv());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->period_s(), 0.0);
  ASSERT_EQ(reloaded->segments().size(), original.segments().size());
  for (std::size_t i = 0; i < original.segments().size(); ++i) {
    EXPECT_EQ(reloaded->segments()[i].start_s, original.segments()[i].start_s);
    EXPECT_EQ(reloaded->segments()[i].kbps, original.segments()[i].kbps);
  }
}

TEST(TraceCorpusCsv, PeriodParameterIsValidated) {
  const std::string csv = "t,kbps\n0,500\n10,900\n";
  EXPECT_FALSE(BandwidthTrace::from_csv(csv, -1.0).ok());
  EXPECT_FALSE(BandwidthTrace::from_csv(csv, 10.0).ok());  // == last start
  EXPECT_FALSE(BandwidthTrace::from_csv(csv, 5.0).ok());   // < last start
  const auto periodic = BandwidthTrace::from_csv(csv, 20.0);
  ASSERT_TRUE(periodic.ok());
  EXPECT_DOUBLE_EQ(periodic->period_s(), 20.0);
  EXPECT_DOUBLE_EQ(periodic->rate_kbps(25.0), 500.0);  // wraps to local t=5
  EXPECT_DOUBLE_EQ(periodic->rate_kbps(35.0), 900.0);  // wraps to local t=15
}

TEST(TraceCorpusCsv, MutationFuzzNeverCrashes) {
  // Seeded mutation fuzz: corrupt corpus CSVs (cell edits, line drops,
  // swaps, truncation, garbage injection) and require from_csv to either
  // parse successfully or return an error — malformed input must never
  // crash or produce an invalid trace.
  Rng rng(20260808);
  const std::string garbage_pool = "nan-inf;e+\"x,\t9";
  int parsed = 0;
  int rejected = 0;
  for (const TraceClass& tc : trace_class_registry()) {
    const std::string base = tc.generate(60.0, 1).to_csv();
    for (int i = 0; i < 250; ++i) {
      std::string mutated = base;
      const int op = static_cast<int>(rng.uniform_int(0, 4));
      switch (op) {
        case 0: {  // flip one byte to garbage
          const auto pos = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(mutated.size() - 1)));
          mutated[pos] = garbage_pool[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(garbage_pool.size() - 1)))];
          break;
        }
        case 1: {  // drop a line
          auto lines = split_lines(mutated);
          lines.erase(lines.begin() +
                      rng.uniform_int(0, static_cast<std::int64_t>(lines.size() - 1)));
          mutated.clear();
          for (const auto& line : lines) mutated += line + "\n";
          break;
        }
        case 2: {  // swap two lines (breaks monotonic time)
          auto lines = split_lines(mutated);
          const auto a = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(lines.size() - 1)));
          const auto b = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(lines.size() - 1)));
          std::swap(lines[a], lines[b]);
          mutated.clear();
          for (const auto& line : lines) mutated += line + "\n";
          break;
        }
        case 3: {  // truncate mid-byte
          mutated.resize(static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(mutated.size()))));
          break;
        }
        default: {  // inject a garbage row
          mutated += format("%.3f,%s\n", rng.uniform(0.0, 100.0), "12..5e");
          break;
        }
      }
      const auto result = BandwidthTrace::from_csv(mutated);
      if (result.ok()) {
        ++parsed;
        // Whatever parsed must be a *valid* trace: positive rates,
        // strictly increasing starts from 0.
        const auto& segs = result->segments();
        ASSERT_FALSE(segs.empty());
        EXPECT_EQ(segs.front().start_s, 0.0);
        for (std::size_t s = 1; s < segs.size(); ++s) {
          EXPECT_GT(segs[s].start_s, segs[s - 1].start_s);
        }
        for (const auto& seg : segs) EXPECT_GT(seg.kbps, 0.0);
      } else {
        ++rejected;
        EXPECT_FALSE(result.error().empty());
      }
    }
  }
  // The fuzzer exercised both outcomes (not a vacuous all-reject pass).
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace demuxabr
