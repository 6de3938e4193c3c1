// Tracer contract tests: macro gating, category masks, thread-shard
// emission, NDJSON structure — plus the acceptance test for the Chrome
// trace-event export: a fleet run under a ScopedTracer must produce JSON
// that parses, nests its B/E spans LIFO per (pid, tid), keeps per-track
// timestamps monotonic, and carries process_name metadata. Tracing must
// also be purely observational: the fleet fingerprint is identical with
// and without a tracer installed.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/scenarios.h"
#include "fleet/metrics.h"
#include "fleet/scheduler.h"
#include "players/exoplayer.h"
#include "util/thread_pool.h"

namespace demuxabr::obs {
namespace {

namespace ex = demuxabr::experiments;

// --- Minimal JSON parser (validation only; no external deps) -------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;                ///< kArray
  std::map<std::string, JsonValue> fields;     ///< kObject

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    const auto it = fields.find(key);
    return it != fields.end() ? &it->second : nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& input) : input_(input) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != input_.size()) return fail("trailing characters");
    return true;
  }

  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  bool fail(const char* what) {
    if (error_.empty()) {
      error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_])) != 0) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool parse_value(JsonValue& out) {
    if (pos_ >= input_.size()) return fail("unexpected end");
    const char c = input_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return parse_string(out.text);
    }
    if (input_.compare(pos_, 4, "true") == 0) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (input_.compare(pos_, 5, "false") == 0) {
      out.type = JsonValue::Type::kBool;
      pos_ += 5;
      return true;
    }
    if (input_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return parse_number(out);
  }

  bool parse_object(JsonValue& out) {
    out.type = JsonValue::Type::kObject;
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.fields.emplace(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out) {
    out.type = JsonValue::Type::kArray;
    if (!consume('[')) return fail("expected '['");
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      out.items.push_back(std::move(value));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    while (pos_ < input_.size()) {
      const char c = input_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= input_.size()) return fail("bad escape");
        const char esc = input_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > input_.size()) return fail("bad \\u escape");
            out += '?';  // validation only: code point fidelity not needed
            pos_ += 4;
            break;
          default: return fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < input_.size() && (input_[pos_] == '-' || input_[pos_] == '+')) ++pos_;
    while (pos_ < input_.size() &&
           (std::isdigit(static_cast<unsigned char>(input_[pos_])) != 0 ||
            input_[pos_] == '.' || input_[pos_] == 'e' || input_[pos_] == 'E' ||
            input_[pos_] == '-' || input_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(input_.c_str() + start, nullptr);
    return true;
  }

  const std::string& input_;
  std::size_t pos_ = 0;
  std::string error_;
};

// --- Tracer primitives ----------------------------------------------------

TEST(Tracer, MacroRoundTripsThroughCaptureSink) {
  ScopedTracer scoped;
  DMX_TRACE_SPAN_BEGIN(kCatDownload, 3, kLaneVideo, "download", 1.5,
                       TraceArgs().kv("chunk", 7).kv("kbps", 1200.5));
  DMX_TRACE_SPAN_END(kCatDownload, 3, kLaneVideo, "download", 2.5,
                     TraceArgs().kv("bytes", std::int64_t{4096}));
  DMX_TRACE_INSTANT(kCatAbr, 3, kLaneAbr, "abr_decision", 2.5,
                    TraceArgs().kv("track_id", "v-1200"));
  scoped.get().name_track(3, "client 3");

  CaptureSink sink;
  scoped.get().drain_to(sink);
  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].kind, TraceEvent::Kind::kBegin);
  EXPECT_EQ(sink.events[0].track, 3u);
  EXPECT_EQ(sink.events[0].lane, kLaneVideo);
  EXPECT_EQ(std::string(sink.events[0].name), "download");
  EXPECT_DOUBLE_EQ(sink.events[0].t_s, 1.5);
  EXPECT_NE(sink.events[0].args.find("\"chunk\":7"), std::string::npos);
  EXPECT_EQ(sink.events[1].kind, TraceEvent::Kind::kEnd);
  EXPECT_EQ(sink.events[2].kind, TraceEvent::Kind::kInstant);
  EXPECT_NE(sink.events[2].args.find("\"track_id\":\"v-1200\""),
            std::string::npos);
  EXPECT_EQ(sink.names.at(3), "client 3");
}

TEST(Tracer, NoTracerMeansNoEmission) {
  ASSERT_EQ(tracer(), nullptr);
  // Must be a no-op (and not crash) with nothing installed.
  DMX_TRACE_INSTANT(kCatDownload, 0, kLanePlayback, "noop", 0.0, TraceArgs());
  EXPECT_EQ(tracer_if(kCatDownload), nullptr);
}

TEST(Tracer, CategoryMaskFiltersAtTheMacro) {
  ScopedTracer scoped(kCatDownload | kCatStall);
  DMX_TRACE_INSTANT(kCatDownload, 0, kLanePlayback, "kept", 1.0, TraceArgs());
  DMX_TRACE_INSTANT(kCatBuffer, 0, kLanePlayback, "filtered", 1.0, TraceArgs());
  DMX_TRACE_INSTANT(kCatEngine, 0, kLanePlayback, "filtered", 1.0, TraceArgs());
  DMX_TRACE_INSTANT(kCatStall, 0, kLanePlayback, "kept", 2.0, TraceArgs());
  EXPECT_EQ(scoped.get().event_count(), 2u);
  EXPECT_EQ(tracer_if(kCatBuffer), nullptr);
  EXPECT_NE(tracer_if(kCatStall), nullptr);
}

TEST(Tracer, ThreadShardsCollectEveryEmission) {
  ScopedTracer scoped;
  constexpr int kThreads = 6;
  constexpr int kPerThread = 2000;
  {
    ThreadPool pool(kThreads);
    std::vector<std::future<void>> futures;
    for (int w = 0; w < kThreads; ++w) {
      futures.push_back(pool.submit([w] {
        for (int i = 0; i < kPerThread; ++i) {
          DMX_TRACE_INSTANT(kCatEngine, static_cast<std::uint32_t>(w),
                            kLanePlayback, "tick", static_cast<double>(i),
                            TraceArgs());
        }
      }));
    }
    for (auto& f : futures) f.get();
  }
  EXPECT_EQ(scoped.get().event_count(),
            static_cast<std::size_t>(kThreads * kPerThread));

  // Per-track (= per emitting thread) order is preserved by the drain.
  CaptureSink sink;
  scoped.get().drain_to(sink);
  std::map<std::uint32_t, double> last_t;
  for (const TraceEvent& e : sink.events) {
    const auto it = last_t.find(e.track);
    if (it != last_t.end()) {
      EXPECT_GE(e.t_s, it->second);
    }
    last_t[e.track] = e.t_s;
  }
}

TEST(Tracer, NdjsonEmitsOneObjectPerLine) {
  ScopedTracer scoped;
  scoped.get().name_track(0, "solo");
  DMX_TRACE_SPAN_BEGIN(kCatDownload, 0, kLaneAudio, "download", 0.25,
                       TraceArgs().kv("chunk", 0));
  DMX_TRACE_SPAN_END(kCatDownload, 0, kLaneAudio, "download", 0.75, TraceArgs());

  std::ostringstream out;
  NdjsonSink sink(out);
  scoped.get().drain_to(sink);

  std::istringstream lines(out.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    JsonValue value;
    JsonParser parser(line);
    ASSERT_TRUE(parser.parse(value)) << parser.error() << "\n" << line;
    EXPECT_EQ(value.type, JsonValue::Type::kObject);
  }
  EXPECT_EQ(count, 3);  // 1 meta line + 2 events
  EXPECT_NE(out.str().find("\"meta\":\"track_name\""), std::string::npos);
  EXPECT_NE(out.str().find("\"kind\":\"begin\""), std::string::npos);
}

TEST(Tracer, SplitNetworkCountsEachLinkOnItsOwnTrack) {
  // §4.1 split paths: video and audio ride separate links, so a traced
  // session shows two active_flows counters, each on its own link track
  // and never above the one flow its media type can have in flight.
  const ex::ExperimentSetup setup = ex::split_path_dash(
      BandwidthTrace::constant(1200.0), BandwidthTrace::constant(200.0), "split-trace");
  ScopedTracer scoped(kCatLink);
  ExoPlayerModel player;
  ex::run(setup, player);
  CaptureSink sink;
  scoped.get().drain_to(sink);

  std::map<std::uint32_t, long long> peak_flows;  // per track
  for (const TraceEvent& e : sink.events) {
    if (e.kind != TraceEvent::Kind::kCounter) continue;
    ASSERT_EQ(std::string(e.name), "active_flows");
    const long long flows = std::stoll(e.args.substr(e.args.find(':') + 1));
    long long& peak = peak_flows[e.track];
    peak = std::max(peak, flows);
  }
  ASSERT_EQ(peak_flows.size(), 2u);
  EXPECT_EQ(peak_flows.count(kLinkTrackBase), 1u);
  EXPECT_EQ(peak_flows.count(kLinkTrackBase + 1), 1u);
  for (const auto& [track, peak] : peak_flows) EXPECT_EQ(peak, 1) << track;
}

// --- Chrome trace acceptance ---------------------------------------------

using FleetConfig = fleet::FleetConfig;

FleetConfig trace_fleet_config() {
  FleetConfig config;
  config.client_count = 10;
  config.seed = 11;
  config.engine = fleet::Engine::kEventHeap;
  config.arrivals = fleet::ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.5;
  config.churn.leave_probability = 0.3;
  config.churn.min_watch_s = 20.0;
  config.churn.max_watch_s = 60.0;
  config.players.push_back(
      {"exoplayer", [] { return std::make_unique<ExoPlayerModel>(); }, 1.0});
  config.session.max_sim_time_s = 900.0;
  return config;
}

TEST(ChromeTrace, FleetTraceParsesNestsAndStaysMonotonic) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "chrome-trace");
  const BandwidthTrace bottleneck = BandwidthTrace::constant(4000.0);

  std::string json;
  {
    ScopedTracer scoped;
    const fleet::FleetResult result =
        fleet::run_fleet(setup.content, setup.view, bottleneck,
                         trace_fleet_config());
    EXPECT_FALSE(result.clients.empty());
    std::ostringstream out;
    ChromeTraceSink sink(out);
    scoped.get().drain_to(sink);
    json = out.str();
  }

  JsonValue root;
  JsonParser parser(json);
  ASSERT_TRUE(parser.parse(root)) << parser.error();
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::Type::kArray);
  ASSERT_FALSE(events->items.empty());

  // Validate every event and collect per-(pid, tid) streams.
  std::map<std::pair<double, double>, double> last_ts;
  std::map<std::pair<double, double>, std::vector<std::string>> open_spans;
  std::map<double, std::string> process_names;
  std::size_t span_events = 0;
  for (const JsonValue& e : events->items) {
    ASSERT_EQ(e.type, JsonValue::Type::kObject);
    const JsonValue* ph = e.find("ph");
    const JsonValue* pid = e.find("pid");
    const JsonValue* tid = e.find("tid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);

    if (ph->text == "M") {
      const JsonValue* name = e.find("name");
      ASSERT_NE(name, nullptr);
      if (name->text == "process_name") {
        const JsonValue* args = e.find("args");
        ASSERT_NE(args, nullptr);
        process_names[pid->number] = args->find("name")->text;
      }
      continue;
    }

    // Timed events: per-track timestamps must be monotonic non-decreasing.
    const JsonValue* ts = e.find("ts");
    ASSERT_NE(ts, nullptr);
    const auto key = std::make_pair(pid->number, tid->number);
    const auto it = last_ts.find(key);
    if (it != last_ts.end()) {
      EXPECT_GE(ts->number, it->second)
          << "timestamps regress on pid=" << pid->number
          << " tid=" << tid->number;
    }
    last_ts[key] = ts->number;

    // B/E spans must pair LIFO with matching names within their lane.
    const JsonValue* name = e.find("name");
    ASSERT_NE(name, nullptr);
    if (ph->text == "B") {
      open_spans[key].push_back(name->text);
      ++span_events;
    } else if (ph->text == "E") {
      auto& stack = open_spans[key];
      ASSERT_FALSE(stack.empty())
          << "E without matching B: " << name->text << " on pid=" << pid->number;
      EXPECT_EQ(stack.back(), name->text);
      stack.pop_back();
      ++span_events;
    } else {
      EXPECT_TRUE(ph->text == "i" || ph->text == "C") << ph->text;
    }
  }
  EXPECT_GT(span_events, 0u);  // download spans must actually appear

  // One named process per session and for the shared link + engine.
  ASSERT_FALSE(process_names.empty());
  EXPECT_NE(process_names.count(0.0), 0u);  // client 0
  EXPECT_NE(process_names.count(static_cast<double>(kLinkTrackBase)), 0u);
  EXPECT_NE(process_names.count(static_cast<double>(kEngineTrack)), 0u);
  EXPECT_NE(process_names[0.0].find("exoplayer"), std::string::npos);
}

TEST(ChromeTrace, TracingIsPurelyObservational) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "observational");
  const BandwidthTrace bottleneck = BandwidthTrace::constant(4000.0);
  const FleetConfig config = trace_fleet_config();

  const fleet::FleetResult untraced =
      fleet::run_fleet(setup.content, setup.view, bottleneck, config);
  std::string traced_fingerprint;
  {
    ScopedTracer scoped;
    const fleet::FleetResult traced =
        fleet::run_fleet(setup.content, setup.view, bottleneck, config);
    EXPECT_GT(scoped.get().event_count(), 0u);
    traced_fingerprint = fleet::fleet_fingerprint(traced);
  }
  EXPECT_EQ(fleet::fleet_fingerprint(untraced), traced_fingerprint);
}

}  // namespace
}  // namespace demuxabr::obs
