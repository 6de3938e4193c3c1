#include "httpsim/cdn_chain.h"

#include <cassert>

namespace demuxabr {

const char* fill_policy_name(FillPolicy policy) {
  return policy == FillPolicy::kBothTiers ? "both_tiers" : "edge_only";
}

CdnChain::CdnChain(const ObjectCatalog* origin, std::int64_t edge_capacity_bytes,
                   std::int64_t regional_capacity_bytes, FillPolicy fill)
    : origin_(origin), edge_(edge_capacity_bytes), fill_(fill) {
  assert(origin != nullptr);
  if (regional_capacity_bytes >= 0) regional_.emplace(regional_capacity_bytes);
}

CdnChain::Stats CdnChain::stats() const {
  Stats out = stats_;
  out.edge_evictions = edge_.eviction_count();
  out.regional_evictions = regional_.has_value() ? regional_->eviction_count() : 0;
  out.edge_used_bytes = edge_.used_bytes();
  out.edge_objects = edge_.object_count();
  out.fill = fill_;
  return out;
}

CdnChain::FetchResult CdnChain::lookup(const std::string& key) {
  FetchResult result;
  const std::int64_t size = origin_->size_of(key);
  if (size < 0) {
    ++stats_.uncacheable;
    return result;  // kNotFound
  }
  result.bytes = size;
  ++stats_.requests;
  if (edge_.get(key)) {
    result.served_by = ServedBy::kEdge;
    ++stats_.edge_hits;
    stats_.edge_hit_bytes += size;
  } else if (regional_.has_value() && regional_->get(key)) {
    result.served_by = ServedBy::kRegional;
    ++stats_.regional_hits;
    stats_.regional_hit_bytes += size;
  } else {
    result.served_by = ServedBy::kOrigin;
    ++stats_.origin_fetches;
    stats_.origin_bytes += size;
  }
  return result;
}

void CdnChain::fill(const std::string& key, ServedBy served_by) {
  if (served_by != ServedBy::kRegional && served_by != ServedBy::kOrigin) return;
  const std::int64_t size = origin_->size_of(key);
  assert(size >= 0 && "fill of an uncatalogued object");
  if (served_by == ServedBy::kOrigin && fill_ == FillPolicy::kBothTiers &&
      regional_.has_value()) {
    regional_->put(key, size);
  }
  edge_.put(key, size);
}

CdnChain::FetchResult CdnChain::fetch(const std::string& key) {
  const FetchResult result = lookup(key);
  fill(key, result.served_by);
  return result;
}

}  // namespace demuxabr
