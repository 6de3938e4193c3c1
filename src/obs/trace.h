// Structured event tracing (DESIGN.md §8 "Observability").
//
// The simulator's debugging story mirrors the paper's methodology: §3's
// failure modes (concurrent-download mis-estimation, A/V buffer imbalance)
// were all diagnosed from per-chunk download intervals and buffer
// trajectories captured *inside* instrumented players. The Tracer captures
// exactly that event taxonomy — download spans, ABR decisions with their
// inputs and outputs, buffer samples, stall spans, link flow-population
// changes, engine event pops — as typed records that render to NDJSON or
// Chrome `chrome://tracing` JSON with one track per session and per link.
//
// A trace belongs to its run: SessionConfig::tracer hands a run its Tracer
// the way TimelineShard is handed to it, and null (the default) means
// untraced. Every instrumentation site goes through the DMX_TRACE_* macros
// below, which take that pointer: the disabled path is one null-pointer
// branch, and argument rendering only runs on the enabled path. perfbench
// never traces, so its end-to-end metrics time the disabled path.
//
// Threading: a Tracer is a plain buffer with one writer. The shard runner
// gives each shard its own Tracer and appends them to the run's in shard-id
// order after the join; run_replications does the same per replication
// (replications reuse client ids, so replication r's events follow r-1's
// on the same tracks). Traced output never depends on thread scheduling.
// Drain after the traced work is done.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace demuxabr::obs {

/// Category bitmask: a Tracer only records the categories it was built
/// with, so high-volume streams (buffer samples, engine pops) can be left
/// out of long captures.
enum Category : unsigned {
  kCatDownload = 1u << 0,  ///< chunk download spans (begin/end per flow)
  kCatAbr = 1u << 1,       ///< ABR decisions with inputs/outputs
  kCatBuffer = 1u << 2,    ///< buffer-level counter samples
  kCatStall = 1u << 3,     ///< playback state: startup, stall spans
  kCatLink = 1u << 4,      ///< link flow add/remove + population counters
  kCatEngine = 1u << 5,    ///< fleet-engine event pops
  kCatAll = (1u << 6) - 1u,
};

/// Track-id namespaces: one Chrome "process" per session and per link.
/// Sessions use their fleet client id (solo sessions default to 0); links
/// and the engine sit in disjoint ranges so ids never collide.
inline constexpr std::uint32_t kLinkTrackBase = 1'000'000;
inline constexpr std::uint32_t kEngineTrack = 2'000'000;

/// Lanes within a track (Chrome "threads"): concurrent audio and video
/// downloads in one session must not share a lane or their spans would not
/// nest.
inline constexpr std::uint8_t kLanePlayback = 0;
inline constexpr std::uint8_t kLaneVideo = 1;
inline constexpr std::uint8_t kLaneAudio = 2;
inline constexpr std::uint8_t kLaneAbr = 3;

const char* lane_name(std::uint8_t lane);
const char* category_name(Category category);

struct TraceEvent {
  enum class Kind : std::uint8_t {
    kBegin,    ///< span open (must be closed LIFO per (track, lane, name))
    kEnd,      ///< span close
    kInstant,  ///< point event
    kCounter,  ///< sampled value series (args carry the values)
  };

  Kind kind = Kind::kInstant;
  std::uint8_t lane = kLanePlayback;
  Category category = kCatEngine;
  const char* name = "";  ///< static-lifetime literal
  std::uint32_t track = 0;
  double t_s = 0.0;  ///< simulated seconds (absolute fleet clock)
  /// Pre-rendered JSON object fields without the enclosing braces, e.g.
  /// `"chunk":3,"kbps":1200`. Built via TraceArgs on the enabled path only.
  std::string args;
};

/// Incremental builder for TraceEvent::args. Chainable on a temporary:
///   TraceArgs().kv("chunk", 3).kv("track", id)
class TraceArgs {
 public:
  TraceArgs&& kv(const char* key, double value) &&;
  TraceArgs&& kv(const char* key, std::int64_t value) &&;
  TraceArgs&& kv(const char* key, int value) && {
    return std::move(*this).kv(key, static_cast<std::int64_t>(value));
  }
  TraceArgs&& kv(const char* key, std::string_view value) &&;
  operator std::string() && { return std::move(out_); }

 private:
  void key(const char* k);
  std::string out_;
};

/// Where drained events go. Tracer::drain_to calls it with track names
/// first, then events in emission order (appended tracers after the
/// appending one's own), then finish().
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void track_name(std::uint32_t track, const std::string& name) {
    (void)track;
    (void)name;
  }
  virtual void event(const TraceEvent& event) = 0;
  virtual void finish() {}
};

/// One JSON object per line per event; `{"meta":"track_name",...}` lines
/// first. Greppable and streamable into any log pipeline.
class NdjsonSink : public TraceSink {
 public:
  explicit NdjsonSink(std::ostream& out) : out_(out) {}
  void track_name(std::uint32_t track, const std::string& name) override;
  void event(const TraceEvent& event) override;

 private:
  std::ostream& out_;
};

/// Chrome trace-event JSON (open in chrome://tracing or Perfetto). Buffers
/// everything and sorts by timestamp at finish() so each track's spans nest
/// and every track's timestamps are monotonic. One Chrome process per
/// track (named via process_name metadata), one thread per lane.
class ChromeTraceSink : public TraceSink {
 public:
  explicit ChromeTraceSink(std::ostream& out) : out_(out) {}
  void track_name(std::uint32_t track, const std::string& name) override;
  void event(const TraceEvent& event) override;
  void finish() override;

 private:
  std::ostream& out_;
  std::map<std::uint32_t, std::string> names_;
  std::vector<TraceEvent> events_;
};

/// In-memory sink for tests.
class CaptureSink : public TraceSink {
 public:
  void track_name(std::uint32_t track, const std::string& name) override {
    names[track] = name;
  }
  void event(const TraceEvent& e) override { events.push_back(e); }

  std::map<std::uint32_t, std::string> names;
  std::vector<TraceEvent> events;
};

/// The trace of one run: categories, events in emission order and track
/// names. One writer at a time; parallel runs trace into one Tracer per
/// shard and append() them after the join.
class Tracer {
 public:
  explicit Tracer(unsigned categories = kCatAll);

  /// True when this tracer keeps events of category `cat`.
  [[nodiscard]] bool records(Category cat) const {
    return (categories_ & cat) != 0;
  }

  /// Record one event.
  void emit(TraceEvent event) { events_.push_back(std::move(event)); }

  /// Attach a human-readable name to a track (session/link). Idempotent.
  void name_track(std::uint32_t track, std::string name);

  /// Move `other`'s events after this tracer's own and add the track names
  /// this tracer does not have yet.
  void append(Tracer&& other);

  [[nodiscard]] unsigned categories() const { return categories_; }

  /// Feed every recorded event (and track names) to `sink`, then
  /// sink.finish(). Non-destructive.
  void drain_to(TraceSink& sink) const;

  [[nodiscard]] std::size_t event_count() const { return events_.size(); }

 private:
  std::vector<TraceEvent> events_;
  std::map<std::uint32_t, std::string> track_names_;
  unsigned categories_;
};

/// Minimal JSON string escaping for names/args values.
std::string json_escape(std::string_view text);

}  // namespace demuxabr::obs

// --- Instrumentation macros ---------------------------------------------
//
// `tracer` is the run's obs::Tracer* (null = untraced). `args` is a
// TraceArgs chain (or any std::string expression); it is only evaluated
// when the tracer is non-null and records the category.

#define DMX_TRACE_EVENT_(tracer_, cat, kind_, track_, lane_, name_, t_, args_) \
  do {                                                                         \
    if (::demuxabr::obs::Tracer* const dmx_tracer_ = (tracer_);                \
        dmx_tracer_ != nullptr && dmx_tracer_->records(cat)) {                 \
      dmx_tracer_->emit(::demuxabr::obs::TraceEvent{                           \
          ::demuxabr::obs::TraceEvent::Kind::kind_,                            \
          static_cast<std::uint8_t>(lane_), (cat), (name_),                    \
          static_cast<std::uint32_t>(track_), (t_), (args_)});                 \
    }                                                                          \
  } while (0)

#define DMX_TRACE_SPAN_BEGIN(tracer, cat, track, lane, name, t, args) \
  DMX_TRACE_EVENT_(tracer, cat, kBegin, track, lane, name, t, args)
#define DMX_TRACE_SPAN_END(tracer, cat, track, lane, name, t, args) \
  DMX_TRACE_EVENT_(tracer, cat, kEnd, track, lane, name, t, args)
#define DMX_TRACE_INSTANT(tracer, cat, track, lane, name, t, args) \
  DMX_TRACE_EVENT_(tracer, cat, kInstant, track, lane, name, t, args)
#define DMX_TRACE_COUNTER(tracer, cat, track, name, t, args) \
  DMX_TRACE_EVENT_(tracer, cat, kCounter, track, 0, name, t, args)
