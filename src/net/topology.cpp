#include "net/topology.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace demuxabr {
namespace {

/// Hard cap on path depth so the pure walks can use stack buffers for the
/// hoisted per-hop inverse populations. validate() enforces it.
constexpr std::size_t kMaxHops = 16;

std::vector<std::uint32_t> sorted_unique(std::vector<std::uint32_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Append `rows` as one CSR block: values into `csr`, the new row boundary
/// into `offsets` (which must already hold the leading 0).
void push_csr_row(std::vector<std::uint32_t>& csr, std::vector<std::uint32_t>& offsets,
                  const std::vector<std::uint32_t>& row) {
  csr.insert(csr.end(), row.begin(), row.end());
  offsets.push_back(static_cast<std::uint32_t>(csr.size()));
}

}  // namespace

// --- TopologySpec ---

std::size_t TopologySpec::add_link(std::string name, BandwidthTrace trace) {
  links.push_back({std::move(name), std::move(trace), 0, std::nullopt});
  return links.size() - 1;
}

std::size_t TopologySpec::add_path(std::string name, std::vector<std::size_t> hops) {
  paths.push_back({std::move(name), std::move(hops)});
  return paths.size() - 1;
}

TopologySpec TopologySpec::single(BandwidthTrace trace, std::string name) {
  TopologySpec spec;
  const std::size_t link = spec.add_link(std::move(name), std::move(trace));
  spec.add_path("path", {link});
  return spec;
}

TopologySpec TopologySpec::sharded(int edge_count, const BandwidthTrace& access,
                                   const BandwidthTrace& edge,
                                   const BandwidthTrace& core) {
  TopologySpec spec;
  const std::size_t core_link = spec.add_link("core", core);
  for (int e = 0; e < edge_count; ++e) {
    const std::size_t access_link = spec.add_link(format("access-%d", e), access);
    const std::size_t edge_link = spec.add_link(format("edge-%d", e), edge);
    spec.add_path(format("shard-%d", e), {access_link, edge_link, core_link});
  }
  return spec;
}

std::vector<std::size_t> TopologySpec::block_assignment(std::size_t path_count,
                                                        std::size_t clients_per_path) {
  std::vector<std::size_t> assignment;
  assignment.reserve(path_count * clients_per_path);
  for (std::size_t p = 0; p < path_count; ++p) {
    for (std::size_t c = 0; c < clients_per_path; ++c) assignment.push_back(p);
  }
  return assignment;
}

std::string TopologySpec::validate() const {
  if (links.empty()) return "topology has no links";
  if (paths.empty()) return "topology has no paths";
  for (std::size_t l = 0; l < links.size(); ++l) {
    if (links[l].name.empty()) return format("link %zu is unnamed", l);
    if (links[l].trace.segments().empty()) {
      return format("link %zu has an empty bandwidth trace", l);
    }
    if (links[l].cache.has_value() && links[l].cache->capacity_bytes < 0) {
      return format("link %zu has a negative cache capacity", l);
    }
  }
  for (std::size_t p = 0; p < paths.size(); ++p) {
    const PathSpec& path = paths[p];
    if (path.hops.empty()) return format("path %zu has no hops", p);
    if (path.hops.size() > kMaxHops) {
      return format("path %zu has %zu hops (max %zu)", p, path.hops.size(), kMaxHops);
    }
    std::vector<std::size_t> seen = path.hops;
    std::sort(seen.begin(), seen.end());
    for (std::size_t i = 0; i < seen.size(); ++i) {
      if (seen[i] >= links.size()) {
        return format("path %zu references link %zu (only %zu links)", p, seen[i],
                      links.size());
      }
      if (i > 0 && seen[i] == seen[i - 1]) {
        return format("path %zu traverses link %zu twice", p, seen[i]);
      }
    }
  }
  for (std::size_t p = 0; p < paths.size(); ++p) {
    std::size_t cached_hops = 0;
    for (const std::size_t hop : paths[p].hops) {
      if (links[hop].cache.has_value()) ++cached_hops;
    }
    if (cached_hops > 1) {
      return format("path %zu traverses %zu cached links (max 1)", p, cached_hops);
    }
  }
  for (const std::size_t p : video_assignment) {
    if (p >= paths.size()) return format("video assignment references path %zu", p);
  }
  for (const std::size_t p : audio_assignment) {
    if (p >= paths.size()) return format("audio assignment references path %zu", p);
  }
  return "";
}

// --- Channel ---

double Channel::add_flow(double now) {
  topo_->population_change(index_, +1, now);
  return service_kbit_;
}

void Channel::remove_flow(double now) {
  topo_->population_change(index_, -1, now);
}

double Channel::service_at(double t) const {
  if (t <= clock_s_) return service_kbit_;
  if (active_flows_ <= 0) return service_kbit_;  // idle: nobody is served
  if (constant_) {
    // The walk's one segment, from the cached binding hop.
    assert(topo_->cached_rates_match_walk(index_));
    return service_kbit_ + bind_kbps_ * (t - clock_s_) * bind_inv_;
  }
  const std::vector<Topology::LinkNode>& links = topo_->links_;
  const std::uint32_t* const hops = topo_->hops_of(index_);
  const std::size_t hop_count = topo_->hop_count_of(index_);
  double inv[kMaxHops];
  for (std::size_t i = 0; i < hop_count; ++i) {
    // Every hop carries at least this path's flows, so this is 1/N.
    inv[i] = links[hops[i]].inv_flows;
    assert(inv[i] == 1.0 / static_cast<double>(links[hops[i]].active_flows));
  }
  double v = service_kbit_;
  double at = clock_s_;
  while (at < t) {
    // One trace lookup per hop per segment gives both the segment's end and
    // the binding hop: the smallest fair share, ties keeping the earliest
    // hop.
    double boundary = std::numeric_limits<double>::infinity();
    std::size_t b = 0;
    double rate = 0.0;
    double best = 0.0;
    for (std::size_t i = 0; i < hop_count; ++i) {
      const BandwidthTrace::Lookup hop = links[hops[i]].trace.lookup(at);
      boundary = std::min(boundary, hop.next_change_s);
      const double share = hop.kbps * inv[i];
      if (i == 0 || share < best) {
        best = share;
        rate = hop.kbps;
        b = i;
      }
    }
    const double seg_end = std::min(boundary, t);
    const double dt = seg_end - at;
    if (dt <= 0.0) break;
    v += rate * dt * inv[b];
    at = seg_end;
  }
  return v;
}

double Channel::time_when_service_reaches(double v_target) const {
  if (v_target <= service_kbit_) return clock_s_;
  if (active_flows_ <= 0) return std::numeric_limits<double>::infinity();
  if (constant_) {
    // The walk's first segment never ends, so it either hits or never does.
    assert(topo_->cached_rates_match_walk(index_));
    if (per_flow_kbps_ > 0.0) return clock_s_ + (v_target - service_kbit_) / per_flow_kbps_;
    return std::numeric_limits<double>::infinity();
  }
  const std::vector<Topology::LinkNode>& links = topo_->links_;
  const std::uint32_t* const hops = topo_->hops_of(index_);
  const std::size_t hop_count = topo_->hop_count_of(index_);
  double inv[kMaxHops];
  for (std::size_t i = 0; i < hop_count; ++i) {
    inv[i] = links[hops[i]].inv_flows;
    assert(inv[i] == 1.0 / static_cast<double>(links[hops[i]].active_flows));
  }
  double v = service_kbit_;
  double at = clock_s_;
  // Walk forward one capacity segment at a time. Terminates for any trace
  // with positive average rate; the iteration cap guards against a
  // pathological all-zero tail (treated as "never").
  for (int guard = 0; guard < 1000000; ++guard) {
    double boundary = std::numeric_limits<double>::infinity();
    double per_flow_kbps = 0.0;
    for (std::size_t i = 0; i < hop_count; ++i) {
      const BandwidthTrace::Lookup hop = links[hops[i]].trace.lookup(at);
      boundary = std::min(boundary, hop.next_change_s);
      const double share = hop.kbps * inv[i];
      if (i == 0 || share < per_flow_kbps) per_flow_kbps = share;
    }
    if (per_flow_kbps > 0.0) {
      const double t_hit = at + (v_target - v) / per_flow_kbps;
      if (t_hit <= boundary) return t_hit;
      if (!std::isfinite(boundary)) return t_hit;
      v += per_flow_kbps * (boundary - at);
    } else if (!std::isfinite(boundary)) {
      return std::numeric_limits<double>::infinity();
    }
    at = boundary;
  }
  return std::numeric_limits<double>::infinity();
}

// --- Topology ---

Topology::Topology(TopologySpec spec) {
  const std::string problem = spec.validate();
  if (!problem.empty()) throw std::invalid_argument(problem);
  video_assignment_ = std::move(spec.video_assignment);
  audio_assignment_ = std::move(spec.audio_assignment);

  links_.reserve(spec.links.size());
  for (std::size_t l = 0; l < spec.links.size(); ++l) {
    LinkNode node;
    node.name = std::move(spec.links[l].name);
    node.trace = std::move(spec.links[l].trace);
    node.trace_track = spec.links[l].trace_track != 0
                           ? spec.links[l].trace_track
                           : obs::kLinkTrackBase + static_cast<std::uint32_t>(l);
    node.constant = node.trace.segments().size() == 1 && node.trace.period_s() == 0.0;
    if (node.constant) node.kbps = node.trace.segments().front().kbps;
    refresh_link(node);
    links_.push_back(std::move(node));
  }

  spec_path_count_ = spec.paths.size();
  for (const LinkSpec& link : spec.links) has_caches_ |= link.cache.has_value();

  // Channel hop lists, built nested first and flattened below. Channel
  // count is fixed up front (spec paths + derived hit channels) so paths_
  // never reallocates once sessions hold pointers into it.
  std::vector<std::vector<std::uint32_t>> channel_hops;
  std::vector<std::string> channel_names;
  channel_hops.reserve(spec.paths.size());
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    std::vector<std::uint32_t> hops;
    hops.reserve(spec.paths[p].hops.size());
    for (const std::size_t hop : spec.paths[p].hops) {
      hops.push_back(static_cast<std::uint32_t>(hop));
    }
    channel_hops.push_back(std::move(hops));
    channel_names.push_back(std::move(spec.paths[p].name));
  }

  // Derived hit channels: for every spec path with a cached hop, the route a
  // cache hit rides — the hop prefix ending at the cached link. When the
  // cached link is the last hop the full path already IS that route, so the
  // hit reuses its channel (on a cached single-link topology, hits and
  // misses therefore ride the same channel).
  // Derived channels are full topology citizens — they join their links'
  // path lists, affected sets and rel spans below, so populations riding
  // them shape every fair share exactly like spec-path populations.
  //
  // (link index, hit channel index) per cached spec path; resolved into
  // cache_routes_ once paths_ is fully built and pointers are stable.
  std::vector<std::optional<std::pair<std::size_t, std::size_t>>> cache_hits(
      spec_path_count_);
  if (has_caches_) {
    for (std::size_t p = 0; p < spec_path_count_; ++p) {
      // Index, don't hold a reference: appending a derived channel can
      // reallocate channel_hops.
      for (std::size_t i = 0; i < channel_hops[p].size(); ++i) {
        const std::uint32_t cached_hop = channel_hops[p][i];
        if (!spec.links[cached_hop].cache.has_value()) continue;
        if (i + 1 == channel_hops[p].size()) {
          cache_hits[p] = {cached_hop, p};
        } else {
          const std::size_t index = channel_hops.size();
          std::vector<std::uint32_t> prefix(
              channel_hops[p].begin(),
              channel_hops[p].begin() + static_cast<std::ptrdiff_t>(i + 1));
          channel_hops.push_back(std::move(prefix));
          channel_names.push_back(channel_names[p] + ":hit");
          cache_hits[p] = {cached_hop, index};
        }
        break;  // validate(): at most one cached hop per path
      }
    }
  }

  const std::size_t channel_count = channel_hops.size();

  // Per-link rider sets, channel-insertion order (spec paths first, then
  // derived channels — the order the nested layout historically built).
  std::vector<std::vector<std::uint32_t>> link_paths(links_.size());
  for (std::size_t p = 0; p < channel_count; ++p) {
    for (const std::uint32_t hop : channel_hops[p]) {
      link_paths[hop].push_back(static_cast<std::uint32_t>(p));
    }
  }

  // Flatten everything into the CSR arrays.
  hop_offsets_.assign(1, 0);
  for (std::size_t p = 0; p < channel_count; ++p) {
    push_csr_row(hop_csr_, hop_offsets_, channel_hops[p]);
  }
  binding_csr_.assign(hop_csr_.size(), 0.0);

  link_paths_offsets_.assign(1, 0);
  rel_offsets_.assign(1, 0);
  for (std::size_t l = 0; l < links_.size(); ++l) {
    LinkNode& node = links_[l];
    node.saturating = true;
    std::vector<std::uint32_t> rel;
    for (const std::uint32_t q : link_paths[l]) {
      if (channel_hops[q].size() > 1) node.saturating = false;
      rel.insert(rel.end(), channel_hops[q].begin(), channel_hops[q].end());
    }
    rel = sorted_unique(std::move(rel));
    node.rel_constant = std::all_of(rel.begin(), rel.end(), [this](std::uint32_t r) {
      return links_[r].constant;
    });
    push_csr_row(link_paths_csr_, link_paths_offsets_, link_paths[l]);
    push_csr_row(rel_csr_, rel_offsets_, rel);
  }

  aff_paths_offsets_.assign(1, 0);
  aff_links_offsets_.assign(1, 0);
  for (std::size_t p = 0; p < channel_count; ++p) {
    std::vector<std::uint32_t> affected;
    for (const std::uint32_t hop : channel_hops[p]) {
      affected.insert(affected.end(), link_paths[hop].begin(), link_paths[hop].end());
    }
    affected = sorted_unique(std::move(affected));
    std::vector<std::uint32_t> touched;
    for (const std::uint32_t q : affected) {
      touched.insert(touched.end(), channel_hops[q].begin(), channel_hops[q].end());
    }
    push_csr_row(aff_paths_csr_, aff_paths_offsets_, affected);
    push_csr_row(aff_links_csr_, aff_links_offsets_, sorted_unique(std::move(touched)));
  }

  // The channels themselves: one contiguous vector, sized exactly once.
  paths_.reserve(channel_count);
  for (std::size_t p = 0; p < channel_count; ++p) {
    Channel channel;
    channel.topo_ = this;
    channel.index_ = static_cast<std::uint32_t>(p);
    channel.name_ = std::move(channel_names[p]);
    channel.constant_ = std::all_of(channel_hops[p].begin(), channel_hops[p].end(),
                                    [this](std::uint32_t hop) { return links_[hop].constant; });
    paths_.push_back(std::move(channel));
    refresh_channel(p);
  }
  cache_routes_.resize(spec_path_count_);
  for (std::size_t p = 0; p < spec_path_count_; ++p) {
    if (cache_hits[p].has_value()) {
      cache_routes_[p] = PathCacheRoute{cache_hits[p]->first,
                                        &paths_[cache_hits[p]->second]};
    }
  }

  channel_dirty_.assign(channel_count, 0);
  dirty_channels_.reserve(channel_count);
}

std::size_t Topology::video_path_for(int client_id) const {
  const auto id = static_cast<std::size_t>(client_id);
  if (video_assignment_.empty()) return id % spec_path_count_;
  return video_assignment_[id % video_assignment_.size()];
}

std::size_t Topology::audio_path_for(int client_id) const {
  if (audio_assignment_.empty()) return video_path_for(client_id);
  const auto id = static_cast<std::size_t>(client_id);
  return audio_assignment_[id % audio_assignment_.size()];
}

void Topology::population_change(std::size_t p, int delta, double now) {
  Channel& path = paths_[p];
  if (delta < 0 && path.active_flows_ <= 0) {
    ++double_removes_;
    assert(false && "Channel::remove_flow on an idle path (double remove)");
    return;
  }
  // Advance every affected entity — exactly the paths whose rate this
  // change can move, and the links those paths traverse — to `now` with the
  // OLD populations, before any count mutates. Entities outside the
  // affected set keep their clocks untouched: their rates are unchanged, so
  // advancing them here would only re-partition their integrals (a
  // floating-point difference) without an epoch bump to re-key cached
  // completion predictions.
  {
    const std::uint32_t* const aff = aff_paths_csr_.data() + aff_paths_offsets_[p];
    const std::size_t count = aff_paths_offsets_[p + 1] - aff_paths_offsets_[p];
    for (std::size_t i = 0; i < count; ++i) advance_path(aff[i], now);
  }
  {
    const std::uint32_t* const aff = aff_links_csr_.data() + aff_links_offsets_[p];
    const std::size_t count = aff_links_offsets_[p + 1] - aff_links_offsets_[p];
    for (std::size_t i = 0; i < count; ++i) advance_link(aff[i], now);
  }

  path.active_flows_ += delta;
  path.peak_flows_ = std::max(path.peak_flows_, path.active_flows_);
  {
    const std::uint32_t* const hops = hops_of(p);
    const std::size_t hop_count = hop_count_of(p);
    for (std::size_t i = 0; i < hop_count; ++i) {
      LinkNode& node = links_[hops[i]];
      node.active_flows += delta;
      node.peak_flows = std::max(node.peak_flows, node.active_flows);
      refresh_link(node);
      DMX_TRACE_COUNTER(tracer_, obs::kCatLink, node.trace_track,
                        "active_flows", now,
                        obs::TraceArgs().kv("flows", node.active_flows));
    }
  }
  // Every affected path's completion predictions went stale (its rate, or
  // its binding constraint, may have moved): re-derive its cached rates,
  // bump its epoch and record it on the dirty list the event-heap engine
  // re-keys per drain phase. The affected set holds every channel through
  // a link whose count just moved, so no other cache is stale.
  {
    const std::uint32_t* const aff = aff_paths_csr_.data() + aff_paths_offsets_[p];
    const std::size_t count = aff_paths_offsets_[p + 1] - aff_paths_offsets_[p];
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t q = aff[i];
      refresh_channel(q);
      ++paths_[q].epoch_;
      if (channel_dirty_[q] == 0) {
        channel_dirty_[q] = 1;
        dirty_channels_.push_back(q);
      }
    }
  }
}

void Topology::refresh_link(LinkNode& node) {
  node.inv_flows =
      node.active_flows > 0 ? 1.0 / static_cast<double>(node.active_flows) : 1.0;
  if (node.constant) {
    node.fair_kbps = node.kbps / static_cast<double>(std::max(1, node.active_flows));
  }
}

void Topology::refresh_channel(std::size_t q) {
  Channel& path = paths_[q];
  if (!path.constant_) return;
  const std::uint32_t* const hops = hops_of(q);
  const std::size_t hop_count = hop_count_of(q);
  // The walk's binding-hop scan and the multi-hop rider sum's min share,
  // expression for expression.
  std::size_t b = 0;
  double best = 0.0;
  double min_share = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < hop_count; ++i) {
    const LinkNode& hop = links_[hops[i]];
    const double share = hop.kbps * hop.inv_flows;
    if (i == 0 || share < best) {
      best = share;
      b = i;
    }
    min_share = std::min(min_share, hop.fair_kbps);
  }
  const LinkNode& binding = links_[hops[b]];
  path.bind_ = static_cast<std::uint32_t>(b);
  path.per_flow_kbps_ = best;
  path.bind_kbps_ = binding.kbps;
  path.bind_inv_ = binding.inv_flows;
  path.min_share_kbps_ = min_share;
}

bool Topology::cached_rates_match_walk(std::size_t q) const {
  const Channel& path = paths_[q];
  const std::uint32_t* const hops = hops_of(q);
  const std::size_t hop_count = hop_count_of(q);
  std::size_t b = 0;
  double best = 0.0;
  double rate = 0.0;
  double inv_b = 0.0;
  double min_share = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < hop_count; ++i) {
    const LinkNode& hop = links_[hops[i]];
    const double kbps = hop.trace.lookup(path.clock_s_).kbps;
    const double inv = 1.0 / static_cast<double>(hop.active_flows);
    const double fair = kbps / static_cast<double>(std::max(1, hop.active_flows));
    if (hop.inv_flows != inv || hop.fair_kbps != fair) return false;
    const double share = kbps * inv;
    if (i == 0 || share < best) {
      best = share;
      rate = kbps;
      inv_b = inv;
      b = i;
    }
    min_share = std::min(min_share, fair);
  }
  return path.bind_ == b && path.per_flow_kbps_ == best && path.bind_kbps_ == rate &&
         path.bind_inv_ == inv_b && path.min_share_kbps_ == min_share;
}

void Topology::advance_path(std::size_t p, double now) {
  Channel& path = paths_[p];
  if (now <= path.clock_s_) return;
  if (path.active_flows_ <= 0) {
    // Idle: V_P is frozen (nobody is served), only the clock moves.
    path.clock_s_ = now;
    return;
  }
  double* const binding = binding_csr_.data() + hop_offsets_[p];
  if (path.constant_) {
    // The walk's one segment, from the cached binding hop.
    assert(cached_rates_match_walk(p));
    const double dt = now - path.clock_s_;
    const double offered = path.bind_kbps_ * dt;
    path.service_kbit_ += offered * path.bind_inv_;
    binding[path.bind_] += dt;
    path.clock_s_ = now;
    return;
  }
  const std::uint32_t* const hops = hops_of(p);
  const std::size_t hop_count = hop_count_of(p);
  double inv[kMaxHops];
  for (std::size_t i = 0; i < hop_count; ++i) {
    inv[i] = links_[hops[i]].inv_flows;
    assert(inv[i] == 1.0 / static_cast<double>(links_[hops[i]].active_flows));
  }
  double at = path.clock_s_;
  while (at < now) {
    // One lookup per hop per segment, as in Channel::service_at.
    double boundary = std::numeric_limits<double>::infinity();
    std::size_t b = 0;
    double rate = 0.0;
    double best = 0.0;
    for (std::size_t i = 0; i < hop_count; ++i) {
      const BandwidthTrace::Lookup hop = links_[hops[i]].trace.lookup(at);
      boundary = std::min(boundary, hop.next_change_s);
      const double share = hop.kbps * inv[i];
      if (i == 0 || share < best) {
        best = share;
        rate = hop.kbps;
        b = i;
      }
    }
    const double seg_end = std::min(boundary, now);
    const double dt = seg_end - at;
    if (dt <= 0.0) break;  // defensive: a trace must advance time
    const double offered = rate * dt;
    path.service_kbit_ += offered * inv[b];
    binding[b] += dt;
    at = seg_end;
  }
  path.clock_s_ = now;
}

void Topology::advance_link(std::size_t l, double now) {
  LinkNode& node = links_[l];
  if (now <= node.clock_s) return;
  double at = node.clock_s;
  const double inv_flows = node.inv_flows;
  assert(inv_flows ==
         (node.active_flows > 0 ? 1.0 / static_cast<double>(node.active_flows) : 1.0));
  if (node.saturating) {
    // Every traversing path is bottlenecked here alone: processor sharing
    // saturates the pipe, so delivered == offered while busy — the plain
    // single-link accounting, expression for expression.
    while (at < now) {
      const BandwidthTrace::Lookup here = node.trace.lookup(at);
      const double seg_end = std::min(here.next_change_s, now);
      const double dt = seg_end - at;
      if (dt <= 0.0) break;
      const double kbps = here.kbps;
      const double offered = kbps * dt;
      node.offered_kbit += offered;
      node.flow_seconds += static_cast<double>(node.active_flows) * dt;
      if (node.active_flows > 0) {
        node.busy_s += dt;
        node.delivered_kbit += offered;
        node.service_kbit += offered * inv_flows;
      }
      if (telemetry_ != nullptr) {
        telemetry_->link_segment(l, at, seg_end, node.active_flows, kbps,
                                 node.active_flows > 0 ? kbps : 0.0);
      }
      at = seg_end;
    }
    node.clock_s = now;
    return;
  }
  // Multi-hop traffic: this link delivers sum over traversing paths q of
  // N_q * rate_q, which can be below capacity when a flow's binding
  // constraint sits elsewhere. Segment boundaries come from every link
  // whose capacity enters those rates (rel span), so each segment
  // integrates a constant; when every one of them is constant, the first
  // segment runs to `now`.
  const std::uint32_t* const rel = rel_csr_.data() + rel_offsets_[l];
  const std::size_t rel_count = node.rel_constant ? 0 : rel_offsets_[l + 1] - rel_offsets_[l];
  const std::uint32_t* const riders = link_paths_csr_.data() + link_paths_offsets_[l];
  const std::size_t rider_count = link_paths_offsets_[l + 1] - link_paths_offsets_[l];
  while (at < now) {
    double boundary = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < rel_count; ++i) {
      boundary = std::min(boundary, links_[rel[i]].trace.next_change_after(at));
    }
    const double seg_end = std::min(boundary, now);
    const double dt = seg_end - at;
    if (dt <= 0.0) break;
    const double kbps = node.trace.rate_kbps(at);
    const double offered = kbps * dt;
    node.offered_kbit += offered;
    node.flow_seconds += static_cast<double>(node.active_flows) * dt;
    double delivered_kbps = 0.0;
    if (node.active_flows > 0) {
      node.busy_s += dt;
      node.service_kbit += offered * inv_flows;
      double rate_sum_kbps = 0.0;
      for (std::size_t i = 0; i < rider_count; ++i) {
        const Channel& path = paths_[riders[i]];
        if (path.active_flows_ <= 0) continue;
        if (path.constant_) {
          assert(cached_rates_match_walk(riders[i]));
          rate_sum_kbps += static_cast<double>(path.active_flows_) * path.min_share_kbps_;
          continue;
        }
        const std::uint32_t* const hops = hops_of(riders[i]);
        const std::size_t hop_count = hop_count_of(riders[i]);
        double share = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < hop_count; ++j) {
          const LinkNode& h = links_[hops[j]];
          share = std::min(share, h.trace.rate_kbps(at) /
                                      static_cast<double>(std::max(1, h.active_flows)));
        }
        rate_sum_kbps += static_cast<double>(path.active_flows_) * share;
      }
      node.delivered_kbit += rate_sum_kbps * dt;
      delivered_kbps = rate_sum_kbps;
    }
    if (telemetry_ != nullptr) {
      telemetry_->link_segment(l, at, seg_end, node.active_flows, kbps,
                               delivered_kbps);
    }
    at = seg_end;
  }
  node.clock_s = now;
}

void Topology::finalize(double t) {
  for (std::size_t p = 0; p < paths_.size(); ++p) advance_path(p, t);
  for (std::size_t l = 0; l < links_.size(); ++l) advance_link(l, t);
}

std::vector<LinkStats> Topology::link_stats() const {
  std::vector<LinkStats> stats;
  stats.reserve(links_.size());
  for (std::size_t l = 0; l < links_.size(); ++l) {
    const LinkNode& node = links_[l];
    LinkStats s;
    s.name = node.name;
    s.observed_s = node.clock_s;
    s.busy_s = node.busy_s;
    s.flow_seconds = node.flow_seconds;
    s.offered_kbit = node.offered_kbit;
    s.delivered_kbit = node.delivered_kbit;
    s.peak_flows = node.peak_flows;
    s.residual_flows = node.active_flows;
    const std::uint32_t* const riders = link_paths_csr_.data() + link_paths_offsets_[l];
    const std::size_t rider_count = link_paths_offsets_[l + 1] - link_paths_offsets_[l];
    for (std::size_t r = 0; r < rider_count; ++r) {
      const std::size_t q = riders[r];
      const std::uint32_t* const hops = hops_of(q);
      const std::size_t hop_count = hop_count_of(q);
      const double* const binding = binding_csr_.data() + hop_offsets_[q];
      for (std::size_t i = 0; i < hop_count; ++i) {
        if (hops[i] == l) s.binding_s += binding[i];
      }
    }
    stats.push_back(std::move(s));
  }
  return stats;
}

std::vector<PathSummary> Topology::path_stats() const {
  std::vector<PathSummary> stats;
  stats.reserve(spec_path_count_);
  for (std::size_t p = 0; p < spec_path_count_; ++p) {
    const Channel& path = paths_[p];
    PathSummary s;
    s.name = path.name_;
    const std::uint32_t* const hops = hops_of(p);
    const std::size_t hop_count = hop_count_of(p);
    const double* const binding = binding_csr_.data() + hop_offsets_[p];
    for (std::size_t i = 0; i < hop_count; ++i) {
      s.hop_names.push_back(links_[hops[i]].name);
    }
    s.binding_s.assign(binding, binding + hop_count);
    s.peak_flows = path.peak_flows_;
    s.residual_flows = path.active_flows_;
    s.service_kbit = path.service_kbit_;
    stats.push_back(std::move(s));
  }
  return stats;
}

void Topology::name_trace_tracks() const {
  if (tracer_ == nullptr) return;
  for (const LinkNode& node : links_) {
    tracer_->name_track(node.trace_track, "link " + node.name);
  }
}

double Topology::path_rate_at(std::size_t p, double t) const {
  const std::uint32_t* const hops = hops_of(p);
  const std::size_t hop_count = hop_count_of(p);
  double rate = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < hop_count; ++i) {
    rate = std::min(rate, link_fair_share_at(hops[i], t));
  }
  return rate;
}

double Topology::link_fair_share_at(std::size_t l, double t) const {
  const LinkNode& node = links_[l];
  return node.trace.rate_kbps(t) / static_cast<double>(std::max(1, node.active_flows));
}

// --- Network ---

Network Network::shared(BandwidthTrace trace, double rtt_s) {
  Network net;
  net.topology_ = std::make_shared<Topology>(TopologySpec::single(std::move(trace)));
  net.video_link = &net.topology_->path_channel(0);
  net.audio_link = net.video_link;
  net.rtt_s = rtt_s;
  return net;
}

void Network::set_tracer(obs::Tracer* tracer) {
  if (topology_ == nullptr) return;
  topology_->set_tracer(tracer);
  topology_->name_trace_tracks();
}

Network Network::split(BandwidthTrace video_trace, BandwidthTrace audio_trace,
                       double rtt_s) {
  TopologySpec spec;
  spec.add_path("video", {spec.add_link("video", std::move(video_trace))});
  spec.add_path("audio", {spec.add_link("audio", std::move(audio_trace))});
  Network net;
  net.topology_ = std::make_shared<Topology>(std::move(spec));
  net.video_link = &net.topology_->path_channel(0);
  net.audio_link = &net.topology_->path_channel(1);
  net.rtt_s = rtt_s;
  return net;
}

}  // namespace demuxabr
