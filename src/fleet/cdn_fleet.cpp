#include "fleet/cdn_fleet.h"

#include <cassert>
#include <utility>

#include "obs/telemetry.h"

namespace demuxabr::fleet {
namespace {

std::string key_of(const DownloadRequest& request) {
  if (request.muxed) {
    return chunk_object_key(request.track_id + "+" + request.audio_track_id,
                            request.chunk_index);
  }
  return chunk_object_key(request.track_id, request.chunk_index);
}

}  // namespace

CdnState::CdnState(const TopologySpec& spec, Topology& topology,
                   std::shared_ptr<const ObjectCatalog> catalog)
    : catalog_(std::move(catalog)) {
  assert(catalog_ != nullptr);
  std::vector<std::size_t> node_of_link(spec.links.size(), spec.links.size());
  for (std::size_t l = 0; l < spec.links.size(); ++l) {
    const std::optional<CacheSpec>& cache = spec.links[l].cache;
    if (!cache.has_value()) continue;
    node_of_link[l] = nodes_.size();
    nodes_.push_back({l, spec.links[l].name,
                      CdnChain(catalog_.get(), cache->capacity_bytes,
                               cache->regional_capacity_bytes)});
  }
  for (std::size_t p = 0; p < topology.path_count(); ++p) {
    const std::optional<PathCacheRoute>& route = topology.cache_route(p);
    if (!route.has_value()) continue;
    routes_[topology.path_channel(p).get()] = {node_of_link[route->link],
                                               route->hit_channel};
  }
}

FlowRoute CdnState::admit(const DownloadRequest& request, Channel& origin_route,
                          double now) {
  const auto it = routes_.find(&origin_route);
  if (it == routes_.end()) return {};  // no cache on this path
  const std::size_t node = it->second.first;
  const CdnChain::ServedBy served_by =
      nodes_[node].chain.lookup(key_of(request)).served_by;
  // Not in the origin inventory (e.g. a muxed request against a demuxed
  // catalog): uncacheable, full path, no delivery owed.
  if (served_by == CdnChain::ServedBy::kNotFound) return {};
  const bool hit = served_by == CdnChain::ServedBy::kEdge;
  if (telemetry_ != nullptr) telemetry_->cdn_request(nodes_[node].link, now, hit);
  // Resident at the edge: the flow only spans the client→edge prefix.
  if (hit) return {it->second.second, 0};
  return {nullptr, make_ticket(node, served_by)};
}

void CdnState::delivered(const DownloadRequest& request, std::uint64_t ticket,
                         double /*now*/) {
  if (ticket == 0) return;
  const auto served_by = static_cast<CdnChain::ServedBy>(ticket & 0x3u);
  Node& node = nodes_[static_cast<std::size_t>(ticket >> 2) - 1];
  node.chain.fill(key_of(request), served_by);
}

std::vector<CdnStats> CdnState::stats() const {
  std::vector<CdnStats> out;
  out.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    out.push_back({node.chain.stats(), node.link_name, node.link});
  }
  return out;
}

std::shared_ptr<const ObjectCatalog> make_fleet_catalog(const Content& content,
                                                        StorageMode storage) {
  return std::make_shared<const ObjectCatalog>(storage == StorageMode::kMuxed
                                                   ? build_muxed_catalog(content)
                                                   : build_demuxed_catalog(content));
}

}  // namespace demuxabr::fleet
