// Tracer contract tests: the per-run trace handle, category masks,
// append order, NDJSON structure — plus the acceptance test for the Chrome
// trace-event export: a fleet run with a Tracer must produce JSON that
// parses, nests its B/E spans LIFO per (pid, tid), keeps per-track
// timestamps monotonic, and carries process_name metadata. Tracing must
// also be purely observational: the fleet fingerprint is identical with
// and without a tracer. Sharded fleets and replications trace into one
// Tracer per shard (replication) and append them in order, so their
// traces are byte-identical at every thread count and every session keeps
// its own global client-id track.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/scenarios.h"
#include "fleet/metrics.h"
#include "fleet/scheduler.h"
#include "net/topology.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "util/strings.h"

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

std::string ndjson_of(const Tracer& tracer) {
  std::ostringstream out;
  NdjsonSink sink(out);
  tracer.drain_to(sink);
  return out.str();
}

TEST(Tracer, MacroRoundTripsThroughCaptureSink) {
  Tracer tracer;
  DMX_TRACE_SPAN_BEGIN(&tracer, kCatDownload, 3, kLaneVideo, "download", 1.5,
                       TraceArgs().kv("chunk", 7).kv("kbps", 1200.5));
  DMX_TRACE_SPAN_END(&tracer, kCatDownload, 3, kLaneVideo, "download", 2.5,
                     TraceArgs().kv("bytes", std::int64_t{4096}));
  DMX_TRACE_INSTANT(&tracer, kCatAbr, 3, kLaneAbr, "abr_decision", 2.5,
                    TraceArgs().kv("track_id", "v-1200"));
  tracer.name_track(3, "client 3");

  CaptureSink sink;
  tracer.drain_to(sink);
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
  // A null tracer is a no-op site that never renders its arguments. The
  // pointer is volatile so the site tests it at run time, as it does a
  // SessionConfig::tracer.
  int rendered = 0;
  Tracer* volatile none = nullptr;
  DMX_TRACE_INSTANT(none, kCatDownload, 0, kLanePlayback, "noop", 0.0,
                    (++rendered, TraceArgs()));
  EXPECT_EQ(rendered, 0);

  // A session with a null tracer emits nothing: running one between two
  // traced runs of the same setup leaves neither trace any different.
  ex::ExperimentSetup setup = ex::split_path_dash(
      BandwidthTrace::constant(1200.0), BandwidthTrace::constant(200.0), "untraced");
  const auto traced_run = [&] {
    Tracer tracer;
    setup.session.tracer = &tracer;
    ExoPlayerModel player;
    ex::run(setup, player);
    return ndjson_of(tracer);
  };
  const std::string before = traced_run();
  EXPECT_FALSE(before.empty());
  setup.session.tracer = nullptr;
  ExoPlayerModel player;
  const SessionLog untraced = ex::run(setup, player);
  EXPECT_GT(untraced.end_time_s, 0.0);
  EXPECT_EQ(traced_run(), before);
}

TEST(Tracer, CategoryMaskFiltersAtTheMacro) {
  Tracer tracer(kCatDownload | kCatStall);
  DMX_TRACE_INSTANT(&tracer, kCatDownload, 0, kLanePlayback, "kept", 1.0, TraceArgs());
  DMX_TRACE_INSTANT(&tracer, kCatBuffer, 0, kLanePlayback, "filtered", 1.0, TraceArgs());
  DMX_TRACE_INSTANT(&tracer, kCatEngine, 0, kLanePlayback, "filtered", 1.0, TraceArgs());
  DMX_TRACE_INSTANT(&tracer, kCatStall, 0, kLanePlayback, "kept", 2.0, TraceArgs());
  EXPECT_EQ(tracer.event_count(), 2u);
  EXPECT_FALSE(tracer.records(kCatBuffer));
  EXPECT_TRUE(tracer.records(kCatStall));
}

TEST(Tracer, AppendKeepsEmissionOrderAndFirstName) {
  Tracer run;
  run.name_track(kEngineTrack, "engine event_heap");
  DMX_TRACE_INSTANT(&run, kCatEngine, kEngineTrack, kLanePlayback, "a", 2.0,
                    TraceArgs());
  Tracer shard;
  shard.name_track(kEngineTrack, "engine shard");
  shard.name_track(7, "c7 exoplayer");
  DMX_TRACE_INSTANT(&shard, kCatEngine, 7, kLanePlayback, "b", 1.0, TraceArgs());
  DMX_TRACE_INSTANT(&shard, kCatEngine, 7, kLanePlayback, "c", 0.5, TraceArgs());

  run.append(std::move(shard));
  CaptureSink sink;
  run.drain_to(sink);
  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(std::string(sink.events[0].name), "a");
  EXPECT_EQ(std::string(sink.events[1].name), "b");
  EXPECT_EQ(std::string(sink.events[2].name), "c");
  EXPECT_EQ(sink.names.at(kEngineTrack), "engine event_heap");
  EXPECT_EQ(sink.names.at(7), "c7 exoplayer");
}

TEST(Tracer, NdjsonEmitsOneObjectPerLine) {
  Tracer tracer;
  tracer.name_track(0, "solo");
  DMX_TRACE_SPAN_BEGIN(&tracer, kCatDownload, 0, kLaneAudio, "download", 0.25,
                       TraceArgs().kv("chunk", 0));
  DMX_TRACE_SPAN_END(&tracer, kCatDownload, 0, kLaneAudio, "download", 0.75,
                     TraceArgs());

  const std::string text = ndjson_of(tracer);
  std::istringstream lines(text);
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
  EXPECT_NE(text.find("\"meta\":\"track_name\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"begin\""), std::string::npos);
}

TEST(Tracer, SplitNetworkCountsEachLinkOnItsOwnTrack) {
  // §4.1 split paths: video and audio ride separate links, so a traced
  // session shows two active_flows counters, each on its own link track
  // and never above the one flow its media type can have in flight.
  ex::ExperimentSetup setup = ex::split_path_dash(
      BandwidthTrace::constant(1200.0), BandwidthTrace::constant(200.0), "split-trace");
  Tracer tracer(kCatLink);
  setup.session.tracer = &tracer;
  ExoPlayerModel player;
  ex::run(setup, player);
  CaptureSink sink;
  tracer.drain_to(sink);

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

TEST(Tracer, SoloSessionNamesItsTrackAndLinks) {
  // A traced solo session names its own track after the player and each
  // link of its Network, so no event lands on an anonymous track.
  ex::ExperimentSetup setup = ex::split_path_dash(
      BandwidthTrace::constant(1200.0), BandwidthTrace::constant(200.0), "split-names");
  Tracer tracer;
  setup.session.tracer = &tracer;
  ExoPlayerModel player;
  ex::run(setup, player);
  CaptureSink sink;
  tracer.drain_to(sink);

  const std::map<std::uint32_t, std::string> expected = {
      {0u, "session exoplayer-dash"},
      {kLinkTrackBase, "link video"},
      {kLinkTrackBase + 1, "link audio"}};
  EXPECT_EQ(sink.names, expected);
  ASSERT_FALSE(sink.events.empty());
  const auto unnamed = std::count_if(
      sink.events.begin(), sink.events.end(),
      [&sink](const TraceEvent& e) { return sink.names.count(e.track) == 0; });
  EXPECT_EQ(unnamed, 0) << "events on unnamed tracks";
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
    Tracer tracer;
    FleetConfig config = trace_fleet_config();
    config.session.tracer = &tracer;
    const fleet::FleetResult result =
        fleet::run_fleet(setup.content, setup.view, bottleneck, config);
    EXPECT_FALSE(result.clients.empty());
    std::ostringstream out;
    ChromeTraceSink sink(out);
    tracer.drain_to(sink);
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
  Tracer tracer;
  FleetConfig traced_config = config;
  traced_config.session.tracer = &tracer;
  const fleet::FleetResult traced =
      fleet::run_fleet(setup.content, setup.view, bottleneck, traced_config);
  EXPECT_GT(tracer.event_count(), 0u);
  EXPECT_EQ(fleet::fleet_fingerprint(untraced), fleet::fleet_fingerprint(traced));
}

// --- Per-run traces of parallel work ---------------------------------------

/// Four causally independent edge→core chains with clients round-robin
/// over them, so every shard holds fleet-wide ids {s, s+4, s+8, ...}.
FleetConfig four_chain_config() {
  FleetConfig config;
  config.client_count = 20;
  config.seed = 23;
  config.arrivals = fleet::ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.5;
  config.churn.leave_probability = 0.3;
  config.churn.min_watch_s = 20.0;
  config.churn.max_watch_s = 90.0;
  config.players.push_back(
      {"exoplayer", [] { return std::make_unique<ExoPlayerModel>(); }, 0.6});
  config.players.push_back(
      {"dashjs", [] { return std::make_unique<DashJsPlayerModel>(); }, 0.4});
  config.session.max_sim_time_s = 600.0;
  TopologySpec spec;
  for (int i = 0; i < 4; ++i) {
    const std::size_t edge = spec.add_link(
        format("edge-%d", i), BandwidthTrace::constant(1800.0 + 300.0 * i));
    const std::size_t core =
        spec.add_link(format("core-%d", i), BandwidthTrace::constant(3600.0));
    spec.add_path(format("chain-%d", i), {edge, core});
  }
  config.topology = std::move(spec);
  return config;
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(Tracer, ShardedFleetTraceIsDeterministicWithATrackPerClient) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "sharded-trace");
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  const FleetConfig base = four_chain_config();

  const auto traced = [&](int threads) {
    Tracer tracer;
    FleetConfig config = base;
    config.threads = threads;
    config.session.tracer = &tracer;
    fleet::run_fleet(setup.content, setup.view, unused, config);
    return tracer;
  };

  const Tracer first = traced(2);
  const std::string expected = ndjson_of(first);
  for (const int threads : {2, 2, 8}) {
    EXPECT_EQ(ndjson_of(traced(threads)), expected) << "threads=" << threads;
  }

  // One named track per client, under its fleet-wide id, and every session
  // event and engine pop on one of them.
  CaptureSink sink;
  first.drain_to(sink);
  std::set<std::uint32_t> session_tracks;
  for (const auto& [track, name] : sink.names) {
    if (track >= kLinkTrackBase) continue;
    session_tracks.insert(track);
    EXPECT_EQ(name.rfind(format("c%u ", track), 0), 0u) << name;
  }
  EXPECT_EQ(session_tracks.size(), static_cast<std::size_t>(base.client_count));
  std::set<std::uint32_t> tracks_with_events;
  for (const TraceEvent& e : sink.events) {
    if (e.track < kLinkTrackBase) tracks_with_events.insert(e.track);
    if (std::string(e.name) == "pop") {
      const long long client = std::stoll(e.args.substr(e.args.rfind(':') + 1));
      EXPECT_EQ(session_tracks.count(static_cast<std::uint32_t>(client)), 1u)
          << e.args;
    }
  }
  EXPECT_EQ(tracks_with_events, session_tracks);

  // The shards together emit exactly the serial whole-topology run's
  // events and names, grouped by shard instead of interleaved in time.
  EXPECT_EQ(sorted_lines(expected), sorted_lines(ndjson_of(traced(1))));
}

TEST(Tracer, ReplicationTraceIsIdenticalAtAnyThreadCount) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "replication-trace");
  const BandwidthTrace bottleneck = BandwidthTrace::constant(4000.0);
  fleet::ReplicationOptions options;
  options.replications = 3;

  const auto traced = [&](int threads) {
    Tracer tracer;
    FleetConfig config = trace_fleet_config();
    config.session.tracer = &tracer;
    options.threads = threads;
    fleet::run_replications(setup.content, setup.view, bottleneck, config,
                            options);
    return tracer;
  };

  const Tracer serial = traced(1);
  const std::string expected = ndjson_of(serial);
  for (const int threads : {4, 8}) {
    EXPECT_EQ(ndjson_of(traced(threads)), expected) << "threads=" << threads;
  }

  // Replication r's events follow replication r-1's: the trace is each
  // replication's own run, traced alone, back to back.
  Tracer back_to_back;
  for (int r = 0; r < options.replications; ++r) {
    Tracer alone;
    FleetConfig config = trace_fleet_config();
    config.seed += static_cast<std::uint64_t>(r);
    config.session.tracer = &alone;
    fleet::run_fleet(setup.content, setup.view, bottleneck, config);
    EXPECT_GT(alone.event_count(), 0u);
    back_to_back.append(std::move(alone));
  }
  EXPECT_EQ(ndjson_of(back_to_back), expected);
}

}  // namespace
}  // namespace demuxabr::obs
