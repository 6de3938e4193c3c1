#include "obs/telemetry.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/strings.h"

namespace demuxabr::obs {

namespace {

/// Deterministic runaway guard: a pathological timestamp (or a tiny bin_s)
/// clamps into the last representable bin instead of exhausting memory.
constexpr std::int64_t kMaxBins = std::int64_t{1} << 22;

std::int64_t us_of(double seconds) { return std::llround(seconds * 1e6); }

/// Sentinel-aware mean helpers for the exporters.
double mean_s(std::int64_t sum_us, std::uint64_t samples) {
  return samples > 0
             ? static_cast<double>(sum_us) / 1e6 / static_cast<double>(samples)
             : 0.0;
}

// The exporters' one writer: every field is appended in place through
// std::to_chars, which with a fixed precision prints exactly what printf's
// "%.<digits>f" prints (and what the exported bytes have always been).

/// A double printed with `digits` decimals.
struct Fixed {
  double value;
  int digits;
};

void put(std::string& out, const char* text) { out += text; }
void put(std::string& out, const std::string& text) { out += text; }

void put(std::string& out, std::uint64_t value) {
  char buf[std::numeric_limits<std::uint64_t>::digits10 + 1];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

void put(std::string& out, Fixed field) {
  // Room for the integer digits of the largest double, a sign, the point
  // and the decimals.
  char buf[std::numeric_limits<double>::max_exponent10 + 40];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, field.value,
                                               std::chars_format::fixed, field.digits);
  assert(r.ec == std::errc());
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
}

template <typename... Fields>
void append(std::string& out, const Fields&... fields) {
  (put(out, fields), ...);
}

}  // namespace

// --- TimelineShard -------------------------------------------------------

TimelineShard::TimelineShard(const TelemetryConfig& config,
                             std::vector<double> ladder_kbps,
                             std::vector<std::string> link_names)
    : config_(config),
      ladder_(std::move(ladder_kbps)),
      link_names_(std::move(link_names)),
      link_bins_(link_names_.size()),
      cdn_bins_(link_names_.size()) {
  // bin_of divides by the width and casts the quotient to an integer: a
  // NaN or non-positive width has no bin to land in.
  if (!(std::isfinite(config_.bin_s) && config_.bin_s > 0.0)) {
    throw std::invalid_argument("TimelineShard: bin_s must be finite and > 0");
  }
  std::sort(ladder_.begin(), ladder_.end());
  ladder_.erase(std::unique(ladder_.begin(), ladder_.end()), ladder_.end());
}

std::int64_t TimelineShard::bin_of(double t) const {
  if (!(t > 0.0)) return 0;
  const double bin = t / config_.bin_s;
  if (bin >= static_cast<double>(kMaxBins - 1)) return kMaxBins - 1;
  return static_cast<std::int64_t>(bin);  // floor: bins are [b·w, (b+1)·w)
}

FleetBin& TimelineShard::fleet_bin(std::int64_t bin) {
  const auto index = static_cast<std::size_t>(bin);
  if (bins_.size() <= index) bins_.resize(index + 1);
  return bins_[index];
}

void TimelineShard::sample_session(TimelineCursor& cursor, double t,
                                   double audio_level_s, double video_level_s,
                                   bool stalled) {
  const std::int64_t b = bin_of(t);
  FleetBin& bin = fleet_bin(b);
  const std::int64_t audio_us = us_of(audio_level_s);
  const std::int64_t video_us = us_of(video_level_s);
  ++bin.samples;
  bin.audio_level_sum_us += audio_us;
  bin.video_level_sum_us += video_us;
  bin.imbalance_sum_us += std::llabs(audio_us - video_us);
  bin.audio_level_min_us = std::min(bin.audio_level_min_us, audio_us);
  bin.video_level_min_us = std::min(bin.video_level_min_us, video_us);
  if (cursor.active_bin != b) {
    cursor.active_bin = b;
    ++bin.active_sessions;
  }
  if (stalled && cursor.stalled_bin != b) {
    cursor.stalled_bin = b;
    ++bin.stalled_sessions;
  }
}

void TimelineShard::video_chunk(double t, double kbps) {
  const std::size_t rungs = ladder_.size();
  if (rungs == 0) return;
  const auto b = static_cast<std::size_t>(bin_of(t));
  if (mix_.size() < (b + 1) * rungs) mix_.resize((b + 1) * rungs, 0);
  // Declared chunk rates are ladder entries; lower_bound with a hair of
  // slack maps them back to their rung (and clamps anything above the top).
  auto it = std::lower_bound(ladder_.begin(), ladder_.end(), kbps - 1e-6);
  const std::size_t rung =
      it == ladder_.end() ? rungs - 1
                          : static_cast<std::size_t>(it - ladder_.begin());
  ++mix_[b * rungs + rung];
}

void TimelineShard::session_started(double t) {
  ++fleet_bin(bin_of(t)).started_sessions;
}

void TimelineShard::session_departed(double t) {
  ++fleet_bin(bin_of(t)).departed_sessions;
}

void TimelineShard::link_segment(std::size_t link, double t0, double t1,
                                 int flows, double offered_kbps,
                                 double delivered_kbps) {
  if (link >= link_bins_.size() || !(t1 > t0)) return;
  std::vector<LinkBin>& series = link_bins_[link];
  std::int64_t b = bin_of(t0);
  double at = t0;
  while (at < t1 && b < kMaxBins) {
    const double boundary = static_cast<double>(b + 1) * config_.bin_s;
    const double piece_end = std::min(boundary, t1);
    const double dt = piece_end - at;
    if (dt > 0.0) {
      if (series.size() <= static_cast<std::size_t>(b)) {
        series.resize(static_cast<std::size_t>(b) + 1);
      }
      LinkBin& bin = series[static_cast<std::size_t>(b)];
      bin.flow_us += std::llround(static_cast<double>(flows) * dt * 1e6);
      bin.offered_kbit_mil += std::llround(offered_kbps * dt * 1000.0);
      if (flows > 0) {
        bin.busy_us += std::llround(dt * 1e6);
        bin.delivered_kbit_mil += std::llround(delivered_kbps * dt * 1000.0);
      }
    }
    at = piece_end;
    ++b;
  }
}

void TimelineShard::cdn_request(std::size_t link, double t, bool edge_hit) {
  if (link >= cdn_bins_.size()) return;
  std::vector<CdnBin>& series = cdn_bins_[link];
  const auto b = static_cast<std::size_t>(bin_of(t));
  if (series.size() <= b) series.resize(b + 1);
  if (edge_hit) {
    ++series[b].hits;
  } else {
    ++series[b].misses;
  }
}

FleetTimeline TimelineShard::take() {
  FleetTimeline out;
  out.bin_s = config_.bin_s;
  out.ladder_kbps = std::move(ladder_);
  out.bins = std::move(bins_);
  out.bitrate_mix = std::move(mix_);
  out.links.reserve(link_bins_.size());
  for (std::size_t l = 0; l < link_bins_.size(); ++l) {
    out.links.push_back({link_names_[l], std::move(link_bins_[l])});
  }
  for (std::size_t l = 0; l < cdn_bins_.size(); ++l) {
    if (!cdn_bins_[l].empty()) out.cdns.push_back({l, std::move(cdn_bins_[l])});
  }
  out.normalize();
  return out;
}

// --- FleetTimeline -------------------------------------------------------

void FleetTimeline::normalize() {
  std::size_t n = bins.size();
  const std::size_t rungs = ladder_kbps.size();
  if (rungs > 0) n = std::max(n, (bitrate_mix.size() + rungs - 1) / rungs);
  for (const LinkSeries& link : links) n = std::max(n, link.bins.size());
  for (const CdnSeries& cdn : cdns) n = std::max(n, cdn.bins.size());
  bins.resize(n);
  bitrate_mix.resize(n * rungs, 0);
  for (LinkSeries& link : links) link.bins.resize(n);
  for (CdnSeries& cdn : cdns) cdn.bins.resize(n);
  std::sort(cdns.begin(), cdns.end(),
            [](const CdnSeries& a, const CdnSeries& b) { return a.link < b.link; });
}

void FleetTimeline::merge(const FleetTimeline& other,
                          const std::vector<std::size_t>* link_map) {
  if (ladder_kbps.empty()) ladder_kbps = other.ladder_kbps;
  if (bins.size() < other.bins.size()) bins.resize(other.bins.size());
  for (std::size_t i = 0; i < other.bins.size(); ++i) {
    const FleetBin& src = other.bins[i];
    FleetBin& dst = bins[i];
    dst.samples += src.samples;
    dst.active_sessions += src.active_sessions;
    dst.stalled_sessions += src.stalled_sessions;
    dst.started_sessions += src.started_sessions;
    dst.departed_sessions += src.departed_sessions;
    dst.audio_level_sum_us += src.audio_level_sum_us;
    dst.video_level_sum_us += src.video_level_sum_us;
    dst.imbalance_sum_us += src.imbalance_sum_us;
    dst.audio_level_min_us = std::min(dst.audio_level_min_us, src.audio_level_min_us);
    dst.video_level_min_us = std::min(dst.video_level_min_us, src.video_level_min_us);
  }
  if (bitrate_mix.size() < other.bitrate_mix.size()) {
    bitrate_mix.resize(other.bitrate_mix.size(), 0);
  }
  for (std::size_t i = 0; i < other.bitrate_mix.size(); ++i) {
    bitrate_mix[i] += other.bitrate_mix[i];
  }
  for (std::size_t j = 0; j < other.links.size(); ++j) {
    const std::size_t global = link_map != nullptr ? (*link_map)[j] : j;
    if (global >= links.size()) links.resize(global + 1);
    LinkSeries& dst = links[global];
    if (dst.name.empty()) dst.name = other.links[j].name;
    const std::vector<LinkBin>& src = other.links[j].bins;
    if (dst.bins.size() < src.size()) dst.bins.resize(src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst.bins[i].busy_us += src[i].busy_us;
      dst.bins[i].flow_us += src[i].flow_us;
      dst.bins[i].offered_kbit_mil += src[i].offered_kbit_mil;
      dst.bins[i].delivered_kbit_mil += src[i].delivered_kbit_mil;
    }
  }
  for (const CdnSeries& cdn : other.cdns) {
    CdnSeries copy = cdn;
    if (link_map != nullptr) copy.link = (*link_map)[cdn.link];
    cdns.push_back(std::move(copy));
  }
}

std::string FleetTimeline::fingerprint() const {
  std::string out = format("telemetry bin_s_mil:%lld bins:%zu rungs:%zu links:%zu cdns:%zu ladder:",
                           static_cast<long long>(std::llround(bin_s * 1000.0)),
                           bins.size(), ladder_kbps.size(), links.size(),
                           cdns.size());
  for (std::size_t r = 0; r < ladder_kbps.size(); ++r) {
    out += format("%s%lld", r > 0 ? "," : "",
                  static_cast<long long>(std::llround(ladder_kbps[r] * 1000.0)));
  }
  out += "\n";
  const std::size_t rungs = ladder_kbps.size();
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const FleetBin& b = bins[i];
    out += format(
        "tbin %zu s:%llu act:%llu stl:%llu new:%llu dep:%llu asum:%lld "
        "vsum:%lld imb:%lld amin:%lld vmin:%lld",
        i, static_cast<unsigned long long>(b.samples),
        static_cast<unsigned long long>(b.active_sessions),
        static_cast<unsigned long long>(b.stalled_sessions),
        static_cast<unsigned long long>(b.started_sessions),
        static_cast<unsigned long long>(b.departed_sessions),
        static_cast<long long>(b.audio_level_sum_us),
        static_cast<long long>(b.video_level_sum_us),
        static_cast<long long>(b.imbalance_sum_us),
        static_cast<long long>(b.audio_level_min_us == kTelemetryNoSample
                                   ? -1
                                   : b.audio_level_min_us),
        static_cast<long long>(b.video_level_min_us == kTelemetryNoSample
                                   ? -1
                                   : b.video_level_min_us));
    if (rungs > 0) {
      out += " mix:";
      for (std::size_t r = 0; r < rungs; ++r) {
        out += format("%s%llu", r > 0 ? "," : "",
                      static_cast<unsigned long long>(bitrate_mix[i * rungs + r]));
      }
    }
    out += "\n";
  }
  for (std::size_t l = 0; l < links.size(); ++l) {
    for (std::size_t i = 0; i < links[l].bins.size(); ++i) {
      const LinkBin& b = links[l].bins[i];
      out += format("tlink %zu %s %zu busy:%lld flow:%lld off:%lld del:%lld\n",
                    l, links[l].name.c_str(), i,
                    static_cast<long long>(b.busy_us),
                    static_cast<long long>(b.flow_us),
                    static_cast<long long>(b.offered_kbit_mil),
                    static_cast<long long>(b.delivered_kbit_mil));
    }
  }
  for (const CdnSeries& cdn : cdns) {
    for (std::size_t i = 0; i < cdn.bins.size(); ++i) {
      out += format("tcdn %zu %zu hit:%llu miss:%llu\n", cdn.link, i,
                    static_cast<unsigned long long>(cdn.bins[i].hits),
                    static_cast<unsigned long long>(cdn.bins[i].misses));
    }
  }
  return out;
}

std::string FleetTimeline::to_ndjson() const {
  const std::size_t rungs = ladder_kbps.size();
  // One allocation for the whole export: a generous bound on each row's
  // length (untouched capacity costs no resident memory), instead of a
  // doubling chain whose freed steps inflate the process's peak RSS.
  std::size_t bound = bins.size() * (320 + 8 * rungs);
  for (const LinkSeries& link : links) bound += link.bins.size() * (160 + link.name.size());
  for (const CdnSeries& cdn : cdns) bound += cdn.bins.size() * 112;
  std::string out;
  out.reserve(bound);
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const FleetBin& b = bins[i];
    append(out, "{\"type\":\"fleet\",\"bin\":", i,
           ",\"t_s\":", Fixed{static_cast<double>(i) * bin_s, 3},
           ",\"samples\":", b.samples, ",\"active\":", b.active_sessions,
           ",\"stalled\":", b.stalled_sessions, ",\"started\":", b.started_sessions,
           ",\"departed\":", b.departed_sessions,
           ",\"audio_mean_s\":", Fixed{mean_s(b.audio_level_sum_us, b.samples), 4},
           ",\"video_mean_s\":", Fixed{mean_s(b.video_level_sum_us, b.samples), 4},
           ",\"imbalance_mean_s\":", Fixed{mean_s(b.imbalance_sum_us, b.samples), 4});
    if (b.audio_level_min_us != kTelemetryNoSample) {
      append(out, ",\"audio_min_s\":",
             Fixed{static_cast<double>(b.audio_level_min_us) / 1e6, 4},
             ",\"video_min_s\":",
             Fixed{static_cast<double>(b.video_level_min_us) / 1e6, 4});
    } else {
      out += ",\"audio_min_s\":null,\"video_min_s\":null";
    }
    if (rungs > 0) {
      out += ",\"mix\":[";
      for (std::size_t r = 0; r < rungs; ++r) {
        if (r > 0) out += ',';
        put(out, bitrate_mix[i * rungs + r]);
      }
      out += "]";
    }
    out += "}\n";
  }
  for (std::size_t l = 0; l < links.size(); ++l) {
    for (std::size_t i = 0; i < links[l].bins.size(); ++i) {
      const LinkBin& b = links[l].bins[i];
      append(out, "{\"type\":\"link\",\"link\":", l, ",\"name\":\"", links[l].name,
             "\",\"bin\":", i,
             ",\"busy\":", Fixed{static_cast<double>(b.busy_us) / 1e6 / bin_s, 4},
             ",\"mean_flows\":", Fixed{static_cast<double>(b.flow_us) / 1e6 / bin_s, 3},
             ",\"offered_kbps\":",
             Fixed{static_cast<double>(b.offered_kbit_mil) / 1000.0 / bin_s, 1},
             ",\"delivered_kbps\":",
             Fixed{static_cast<double>(b.delivered_kbit_mil) / 1000.0 / bin_s, 1}, "}\n");
    }
  }
  for (const CdnSeries& cdn : cdns) {
    for (std::size_t i = 0; i < cdn.bins.size(); ++i) {
      const std::uint64_t total = cdn.bins[i].hits + cdn.bins[i].misses;
      const double hit_ratio = total > 0 ? static_cast<double>(cdn.bins[i].hits) /
                                               static_cast<double>(total)
                                         : 0.0;
      append(out, "{\"type\":\"cdn\",\"link\":", cdn.link, ",\"bin\":", i,
             ",\"hits\":", cdn.bins[i].hits, ",\"misses\":", cdn.bins[i].misses,
             ",\"hit_ratio\":", Fixed{hit_ratio, 4}, "}\n");
    }
  }
  return out;
}

std::string FleetTimeline::to_csv() const {
  std::string out =
      "bin,t_s,samples,active,stalled,started,departed,audio_mean_s,"
      "video_mean_s,imbalance_mean_s,audio_min_s,video_min_s\n";
  for (std::size_t i = 0; i < bins.size(); ++i) {
    const FleetBin& b = bins[i];
    append(out, i, ",", Fixed{static_cast<double>(i) * bin_s, 3}, ",", b.samples, ",",
           b.active_sessions, ",", b.stalled_sessions, ",", b.started_sessions, ",",
           b.departed_sessions, ",", Fixed{mean_s(b.audio_level_sum_us, b.samples), 4},
           ",", Fixed{mean_s(b.video_level_sum_us, b.samples), 4}, ",",
           Fixed{mean_s(b.imbalance_sum_us, b.samples), 4});
    if (b.audio_level_min_us != kTelemetryNoSample) {
      append(out, ",", Fixed{static_cast<double>(b.audio_level_min_us) / 1e6, 4}, ",",
             Fixed{static_cast<double>(b.video_level_min_us) / 1e6, 4});
    } else {
      out += ",,";
    }
    out += "\n";
  }
  return out;
}

}  // namespace demuxabr::obs
