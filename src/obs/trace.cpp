#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "util/strings.h"

namespace demuxabr::obs {
namespace {

const char* kind_name(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kBegin: return "begin";
    case TraceEvent::Kind::kEnd: return "end";
    case TraceEvent::Kind::kInstant: return "instant";
    case TraceEvent::Kind::kCounter: return "counter";
  }
  return "?";
}

const char* chrome_phase(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kBegin: return "B";
    case TraceEvent::Kind::kEnd: return "E";
    case TraceEvent::Kind::kInstant: return "i";
    case TraceEvent::Kind::kCounter: return "C";
  }
  return "i";
}

}  // namespace

const char* lane_name(std::uint8_t lane) {
  switch (lane) {
    case kLanePlayback: return "playback";
    case kLaneVideo: return "video";
    case kLaneAudio: return "audio";
    case kLaneAbr: return "abr";
  }
  return "lane";
}

const char* category_name(Category category) {
  switch (category) {
    case kCatDownload: return "download";
    case kCatAbr: return "abr";
    case kCatBuffer: return "buffer";
    case kCatStall: return "stall";
    case kCatLink: return "link";
    case kCatEngine: return "engine";
    default: return "multi";
  }
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

// --- TraceArgs -----------------------------------------------------------

void TraceArgs::key(const char* k) {
  if (!out_.empty()) out_ += ',';
  out_ += '"';
  out_ += k;
  out_ += "\":";
}

TraceArgs&& TraceArgs::kv(const char* k, double value) && {
  key(k);
  out_ += format("%.6g", value);
  return std::move(*this);
}

TraceArgs&& TraceArgs::kv(const char* k, std::int64_t value) && {
  key(k);
  out_ += format("%lld", static_cast<long long>(value));
  return std::move(*this);
}

TraceArgs&& TraceArgs::kv(const char* k, std::string_view value) && {
  key(k);
  out_ += '"';
  out_ += json_escape(value);
  out_ += '"';
  return std::move(*this);
}

// --- Tracer --------------------------------------------------------------

Tracer::Tracer(unsigned categories) : categories_(categories & kCatAll) {}

void Tracer::name_track(std::uint32_t track, std::string name) {
  track_names_.emplace(track, std::move(name));
}

void Tracer::append(Tracer&& other) {
  events_.insert(events_.end(), std::make_move_iterator(other.events_.begin()),
                 std::make_move_iterator(other.events_.end()));
  other.events_.clear();
  track_names_.merge(other.track_names_);
}

void Tracer::drain_to(TraceSink& sink) const {
  for (const auto& [track, name] : track_names_) sink.track_name(track, name);
  for (const TraceEvent& event : events_) sink.event(event);
  sink.finish();
}

// --- NdjsonSink ----------------------------------------------------------

void NdjsonSink::track_name(std::uint32_t track, const std::string& name) {
  out_ << "{\"meta\":\"track_name\",\"track\":" << track << ",\"name\":\""
       << json_escape(name) << "\"}\n";
}

void NdjsonSink::event(const TraceEvent& e) {
  out_ << "{\"kind\":\"" << kind_name(e.kind) << "\",\"cat\":\""
       << category_name(e.category) << "\",\"name\":\"" << e.name
       << "\",\"track\":" << e.track << ",\"lane\":" << int{e.lane}
       << ",\"t\":" << format("%.9g", e.t_s);
  if (!e.args.empty()) out_ << ",\"args\":{" << e.args << '}';
  out_ << "}\n";
}

// --- ChromeTraceSink -----------------------------------------------------

void ChromeTraceSink::track_name(std::uint32_t track, const std::string& name) {
  names_[track] = name;
}

void ChromeTraceSink::event(const TraceEvent& e) { events_.push_back(e); }

void ChromeTraceSink::finish() {
  // Stable sort keeps same-timestamp events in emission order, so per-track
  // order (and B/E pairing) is preserved while the global stream becomes
  // time-ordered.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.t_s < b.t_s;
                   });

  out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    out_ << (first ? "\n" : ",\n");
    first = false;
  };

  // Process metadata: one Chrome process per named track, sorted by id so
  // sessions line up above links in the viewer.
  for (const auto& [track, name] : names_) {
    sep();
    out_ << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << track
         << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
    sep();
    out_ << "{\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":" << track
         << ",\"tid\":0,\"args\":{\"sort_index\":" << track << "}}";
  }
  // Thread metadata: name every (track, lane) that actually carries events.
  std::map<std::uint32_t, unsigned> lanes_seen;
  for (const TraceEvent& e : events_) {
    if (e.kind != TraceEvent::Kind::kCounter) {
      lanes_seen[e.track] |= 1u << e.lane;
    }
  }
  for (const auto& [track, mask] : lanes_seen) {
    for (std::uint8_t lane = 0; lane < 8; ++lane) {
      if ((mask & (1u << lane)) == 0) continue;
      sep();
      out_ << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << track
           << ",\"tid\":" << int{lane} << ",\"args\":{\"name\":\""
           << lane_name(lane) << "\"}}";
    }
  }

  for (const TraceEvent& e : events_) {
    sep();
    out_ << "{\"ph\":\"" << chrome_phase(e.kind) << "\",\"cat\":\""
         << category_name(e.category) << "\",\"name\":\"" << e.name
         << "\",\"pid\":" << e.track << ",\"tid\":" << int{e.lane}
         << ",\"ts\":" << format("%.3f", e.t_s * 1e6);
    if (e.kind == TraceEvent::Kind::kInstant) out_ << ",\"s\":\"t\"";
    if (!e.args.empty()) out_ << ",\"args\":{" << e.args << '}';
    out_ << '}';
  }
  out_ << "\n]}\n";
}

}  // namespace demuxabr::obs
