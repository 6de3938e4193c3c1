// BandwidthTrace's one lookup (net/bandwidth_trace.h) against the
// two-search oracle of tests/trace_oracle.h, bit for bit, and the trace
// shapes that lookup cannot serve, which every builder rejects.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/bandwidth_trace.h"
#include "net/trace_corpus.h"
#include "trace_oracle.h"

namespace demuxabr {
namespace {

struct NamedTrace {
  std::string name;
  BandwidthTrace trace;
};

std::vector<NamedTrace> oracle_traces() {
  std::vector<NamedTrace> traces;
  for (const TraceClass& tc : trace_class_registry()) {
    for (const std::uint64_t seed : {1u, 7u, 13u}) {
      for (const double duration : {60.0, 247.3, 301.7}) {
        traces.push_back({tc.name + " seed " + std::to_string(seed) + " duration " +
                              std::to_string(duration),
                          tc.generate(duration, seed)});
      }
    }
  }
  traces.push_back({"constant", BandwidthTrace::constant(900.0)});
  traces.push_back({"square", BandwidthTrace::square_wave(300.0, 900.0, 30.0, 30.0)});
  traces.push_back({"square high first",
                    BandwidthTrace::square_wave(350.0, 1200.0, 42.0, 18.0, true)});
  traces.push_back({"square awkward",
                    BandwidthTrace::square_wave(676.7267339026979, 1025.0480340390654,
                                                4.1034567891234567, 5.3036690469870599)});
  const std::vector<BandwidthTrace::Step> steps = {
      {10.0, 500.0}, {0.3, 2000.0}, {7.7, 800.0}, {12.1, 150.0}};
  traces.push_back({"steps repeating", BandwidthTrace::steps(steps, true)});
  traces.push_back({"steps once", BandwidthTrace::steps(steps, false)});
  traces.push_back({"random walk",
                    BandwidthTrace::random_walk(300.0, 1500.0, 2.0, 247.3, 200.0, 7)});
  traces.push_back({"cellular", BandwidthTrace::cellular(301.7, 5)});
  return traces;
}

/// Every segment boundary of the first three periods (the segment starts
/// of an aperiodic trace), each also 1 and 4 ulp either side; the exact
/// wrap multiples k * period for k up to 113; and t = 1e6 s, where the
/// relative slack term dominates.
std::vector<double> query_times(const BandwidthTrace& trace) {
  std::vector<double> boundaries;
  const double period = trace.period_s();
  const int periods = period > 0.0 ? 3 : 1;
  for (int k = 0; k < periods; ++k) {
    const double base = static_cast<double>(k) * period;
    for (const BandwidthTrace::Segment& s : trace.segments()) {
      boundaries.push_back(base + s.start_s);
    }
  }
  if (period > 0.0) boundaries.push_back(3.0 * period);
  std::vector<double> times;
  const double inf = std::numeric_limits<double>::infinity();
  for (const double b : boundaries) {
    times.push_back(b);
    double up = b;
    double down = b;
    for (int ulp = 1; ulp <= 4; ++ulp) {
      up = std::nextafter(up, inf);
      down = std::nextafter(down, -inf);
      if (ulp == 1 || ulp == 4) {
        times.push_back(up);
        times.push_back(down);
      }
    }
  }
  if (period > 0.0) {
    for (int k = 0; k <= 113; ++k) times.push_back(static_cast<double>(k) * period);
  }
  times.push_back(1e6);
  return times;
}

TEST(TraceLookup, MatchesTheLinearScanOracleBitForBit) {
  std::size_t queries = 0;
  for (const NamedTrace& named : oracle_traces()) {
    SCOPED_TRACE(named.name);
    const BandwidthTrace& trace = named.trace;
    for (const double t : query_times(trace)) {
      const double rate = oracle_rate_kbps(trace, t);
      const double next = oracle_next_change_after(trace, t);
      const BandwidthTrace::Lookup lookup = trace.lookup(t);
      EXPECT_EQ(lookup.kbps, rate) << "t=" << t;
      EXPECT_EQ(lookup.next_change_s, next) << "t=" << t;
      EXPECT_EQ(trace.rate_kbps(t), rate) << "t=" << t;
      EXPECT_EQ(trace.next_change_after(t), next) << "t=" << t;
      ++queries;
    }
    if (HasFailure()) return;  // one trace's worth of mismatches is enough
  }
  EXPECT_GT(queries, 40000u);
}

TEST(TraceLookup, SlackEdgeQueriesMatchTheOracle) {
  // The merge slack puts a query at local + eps == start in the segment
  // that starts there. Queries 1 or 4 ulp off a boundary sit dozens of ulp
  // inside the slack, so only a walk across its edge tells an
  // upper_bound (start > local + eps) from a lower_bound (start >=
  // local + eps). Walk 16 ulp either side of each edge of the first three
  // periods.
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t exact_edges = 0;
  for (const NamedTrace& named : oracle_traces()) {
    SCOPED_TRACE(named.name);
    const BandwidthTrace& trace = named.trace;
    const double period = trace.period_s();
    const int periods = period > 0.0 ? 3 : 1;
    for (int k = 0; k < periods; ++k) {
      const double base = static_cast<double>(k) * period;
      for (const BandwidthTrace::Segment& s : trace.segments()) {
        if (s.start_s == 0.0) continue;
        const double b = base + s.start_s;
        double t = b - (1e-12 + b * 4e-16);
        for (int ulp = 0; ulp < 16; ++ulp) t = std::nextafter(t, -inf);
        for (int step = 0; step <= 32; ++step, t = std::nextafter(t, inf)) {
          // In the first period local == t, so the edge is exact here.
          if (k == 0 && t + (1e-12 + t * 4e-16) == s.start_s) ++exact_edges;
          const BandwidthTrace::Lookup lookup = trace.lookup(t);
          EXPECT_EQ(lookup.kbps, oracle_rate_kbps(trace, t)) << "t=" << t;
          EXPECT_EQ(lookup.next_change_s, oracle_next_change_after(trace, t)) << "t=" << t;
        }
      }
    }
    if (HasFailure()) return;
  }
  // The walks did land on the edge itself, not just around it.
  EXPECT_GT(exact_edges, 1000u);
}

// --- Trace shapes the one lookup cannot serve: its binary search needs
// --- segment starts rising strictly from 0, and its periodic reduction a
// --- finite period past the last start. The constructor every builder
// --- goes through throws on them, and on a negative or non-finite rate;
// --- steps() and square_wave() also reject a non-positive duration up
// --- front.

TEST(TraceShape, RejectsNoSegments) {
  EXPECT_THROW(BandwidthTrace::steps({}, false), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::steps({}, true), std::invalid_argument);
}

TEST(TraceShape, RejectsNonPositiveDurations) {
  EXPECT_THROW(BandwidthTrace::steps({{10.0, 500.0}, {0.0, 800.0}, {5.0, 300.0}}, false),
               std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::steps({{10.0, 500.0}, {-4.0, 800.0}, {5.0, 300.0}}, false),
               std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::steps({{std::nan(""), 500.0}, {5.0, 300.0}}, false),
               std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::steps({{10.0, 500.0}, {0.0, 800.0}}, false),
               std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::square_wave(300.0, 900.0, 0.0, 30.0), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::square_wave(300.0, 900.0, 30.0, 0.0), std::invalid_argument);
  // Durations summing to 0 leave valid starts and a period of 0: the
  // constructor alone would accept them as an aperiodic trace.
  EXPECT_THROW(BandwidthTrace::steps({{10.0, 500.0}, {-10.0, 800.0}}, true),
               std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::square_wave(300.0, 900.0, -30.0, 30.0, true),
               std::invalid_argument);
}

TEST(TraceShape, RejectsStartsThatDoNotRise) {
  // Positive durations that vanish in rounding: 1e20 + 1 == 1e20.
  EXPECT_THROW(BandwidthTrace::steps({{1e20, 500.0}, {1.0, 800.0}, {1.0, 300.0}}, false),
               std::invalid_argument);
}

TEST(TraceShape, RejectsPeriodNotPastLastStart) {
  EXPECT_THROW(BandwidthTrace::steps({{1e20, 500.0}, {1.0, 800.0}}, true),
               std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::square_wave(300.0, 900.0, 1e20, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(BandwidthTrace::steps({{1e20, 500.0}, {1.0, 800.0}}, false));
}

TEST(TraceShape, RejectsNonFiniteStartsAndPeriods) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(BandwidthTrace::steps({{inf, 500.0}, {5.0, 300.0}}, false),
               std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::steps({{10.0, 500.0}, {inf, 300.0}}, true),
               std::invalid_argument);
}

TEST(TraceShape, RejectsNegativeAndNonFiniteRates) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  EXPECT_THROW(BandwidthTrace::constant(-300.0), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::constant(nan), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::constant(inf), std::invalid_argument);
  // A one-flow channel over this trace would read V(20 s) < V(10 s).
  EXPECT_THROW(BandwidthTrace::steps({{10.0, 2000.0}, {10.0, -500.0}}, true),
               std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::steps({{10.0, nan}, {10.0, 500.0}}, false),
               std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::square_wave(-300.0, 900.0, 30.0, 30.0),
               std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::square_wave(300.0, nan, 30.0, 30.0, true),
               std::invalid_argument);
  // A non-positive interval would append random-walk segments forever.
  EXPECT_THROW(BandwidthTrace::random_walk(500.0, 2000.0, 0.0, 60.0, 100.0, 1),
               std::invalid_argument);
  EXPECT_THROW(BandwidthTrace::random_walk(500.0, 2000.0, -1.0, 60.0, 100.0, 1),
               std::invalid_argument);
  // Zero models a dark link.
  EXPECT_NO_THROW(BandwidthTrace::constant(0.0));
  EXPECT_NO_THROW(BandwidthTrace::steps({{10.0, 2000.0}, {10.0, 0.0}}, true));
}

TEST(TraceShape, CsvRejectsNonFiniteCellsWithAnError) {
  for (const char* csv : {"t,kbps\n0,500\nnan,600\n", "t,kbps\n0,500\ninf,600\n",
                          "t,kbps\n0,nan\n", "t,kbps\n0,500\n5,inf\n"}) {
    const auto trace = BandwidthTrace::from_csv(csv);
    ASSERT_FALSE(trace.ok()) << csv;
    EXPECT_EQ(trace.error(), "trace csv has a non-finite cell") << csv;
  }
}

}  // namespace
}  // namespace demuxabr
