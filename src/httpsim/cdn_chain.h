// The one CDN cache model: edge cache -> optional regional cache -> origin.
// It serves the §1 motivation replay (httpsim/workload.h: a single-tier
// chain, or a caller-built two-tier chain for the fill-policy sweep) and
// every CDN node of a cache-aware fleet (fleet/cdn_fleet.h), where the
// demuxed cache-reuse advantage compounds across tiers (the regional cache
// serves many edges' misses).
//
// A request is two steps: lookup() counts it and touches the tier that
// holds the object; fill() applies the fill policy once the object has
// been delivered. fetch() is both at once (the replay); the fleet calls
// fill() only when the flow completes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "httpsim/catalog.h"
#include "httpsim/lru_cache.h"

namespace demuxabr {

/// What an origin fetch populates on its way down the chain. kBothTiers is
/// the classic hierarchy (regional absorbs other edges' future misses);
/// kEdgeOnly models a pull-through regional that only caches on its *own*
/// hits — cheaper regional storage, more origin egress.
enum class FillPolicy { kBothTiers, kEdgeOnly };

[[nodiscard]] const char* fill_policy_name(FillPolicy policy);

class CdnChain {
 public:
  /// Capacities in bytes, 0 = unbounded. A negative regional capacity means
  /// no regional tier: a single-tier edge in front of the origin.
  CdnChain(const ObjectCatalog* origin, std::int64_t edge_capacity_bytes,
           std::int64_t regional_capacity_bytes,
           FillPolicy fill = FillPolicy::kBothTiers);

  enum class ServedBy { kEdge, kRegional, kOrigin, kNotFound };

  struct FetchResult {
    std::int64_t bytes = 0;
    ServedBy served_by = ServedBy::kNotFound;
  };

  /// Count one request and touch the tier that holds the object: edge, else
  /// regional, else origin. Fills nothing. A key missing from the origin
  /// catalog counts as uncacheable, not as a request.
  FetchResult lookup(const std::string& key);

  /// Fill the tiers below the one that served `key`: a regional hit fills
  /// the edge; an origin fetch fills the edge, and the regional tier too
  /// under kBothTiers. Edge hits and unknown keys fill nothing.
  void fill(const std::string& key, ServedBy served_by);

  /// lookup() then fill(): the object is delivered at once.
  FetchResult fetch(const std::string& key);

  struct Stats {
    std::int64_t requests = 0;        ///< catalogued requests
    std::int64_t edge_hits = 0;
    std::int64_t regional_hits = 0;
    std::int64_t origin_fetches = 0;
    std::int64_t uncacheable = 0;     ///< keys absent from the catalog (not counted above)

    std::int64_t edge_hit_bytes = 0;
    std::int64_t regional_hit_bytes = 0;
    std::int64_t origin_bytes = 0;    ///< origin egress

    /// Snapshots of the tier caches and the chain's fill policy, folded in
    /// by stats() so one struct carries the whole row.
    std::size_t edge_evictions = 0;
    std::size_t regional_evictions = 0;
    std::int64_t edge_used_bytes = 0;  ///< resident edge bytes
    std::size_t edge_objects = 0;      ///< resident edge objects
    FillPolicy fill = FillPolicy::kBothTiers;

    [[nodiscard]] double hit_ratio() const {
      return requests > 0 ? static_cast<double>(edge_hits) / static_cast<double>(requests)
                          : 0.0;
    }
    [[nodiscard]] double byte_hit_ratio() const {
      const std::int64_t total = edge_hit_bytes + regional_hit_bytes + origin_bytes;
      return total > 0 ? static_cast<double>(edge_hit_bytes) / static_cast<double>(total)
                       : 0.0;
    }
  };

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const LruCache& edge() const { return edge_; }
  /// Null when the chain has no regional tier.
  [[nodiscard]] const LruCache* regional() const {
    return regional_.has_value() ? &*regional_ : nullptr;
  }

 private:
  const ObjectCatalog* origin_;
  LruCache edge_;
  std::optional<LruCache> regional_;
  FillPolicy fill_;
  Stats stats_;
};

}  // namespace demuxabr
