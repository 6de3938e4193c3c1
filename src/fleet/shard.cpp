#include "fleet/shard.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "fleet/scheduler.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace demuxabr::fleet {
namespace {

/// Plain union-find over link indices (path compression, union by attaching
/// to the smaller root so component representatives stay the minimum link
/// index — which is also the shard ordering key).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

/// The spec's client→path rule (Topology::video_path_for, but on the spec,
/// before any Topology is built).
std::size_t video_path_of(const TopologySpec& spec, int client_id) {
  const auto id = static_cast<std::size_t>(client_id);
  if (spec.video_assignment.empty()) return id % spec.paths.size();
  return spec.video_assignment[id % spec.video_assignment.size()];
}

std::size_t audio_path_of(const TopologySpec& spec, int client_id) {
  if (spec.audio_assignment.empty()) return video_path_of(spec, client_id);
  const auto id = static_cast<std::size_t>(client_id);
  return spec.audio_assignment[id % spec.audio_assignment.size()];
}

void merge_profiles(obs::EngineProfile& into, const obs::EngineProfile& from) {
  into.enabled = into.enabled || from.enabled;
  into.drain.wall_s += from.drain.wall_s;
  into.drain.calls += from.drain.calls;
  into.register_phase.wall_s += from.register_phase.wall_s;
  into.register_phase.calls += from.register_phase.calls;
  into.admit.wall_s += from.admit.wall_s;
  into.admit.calls += from.admit.calls;
  into.heap_pops += from.heap_pops;
  into.link_sync_checks += from.link_sync_checks;
  into.link_sync_refreshes += from.link_sync_refreshes;
}

}  // namespace

ShardPartition partition_fleet(const TopologySpec& spec,
                               const std::vector<ClientPlan>& plans) {
  const std::string problem = spec.validate();
  if (!problem.empty()) throw std::invalid_argument(problem);
  UnionFind uf(spec.links.size());
  for (const PathSpec& path : spec.paths) {
    for (std::size_t h = 1; h < path.hops.size(); ++h) {
      uf.unite(path.hops[0], path.hops[h]);
    }
  }
  // A session spans its client's video AND audio paths: couple them so the
  // whole session lands in one shard. (No-op when audio rides video.)
  if (!spec.audio_assignment.empty()) {
    for (const ClientPlan& plan : plans) {
      uf.unite(spec.paths[video_path_of(spec, plan.id)].hops[0],
               spec.paths[audio_path_of(spec, plan.id)].hops[0]);
    }
  }

  // Components ordered by smallest link index == their root (union by
  // smaller root guarantees it). A component no path traverses (an unused
  // link) cannot form a valid sub-spec; it is causally inert — no flow ever
  // joins it — so its links ride along in shard 0 with idle books.
  std::vector<std::size_t> shard_of_link(spec.links.size());
  std::vector<bool> root_has_path(spec.links.size(), false);
  for (const PathSpec& path : spec.paths) {
    root_has_path[uf.find(path.hops[0])] = true;
  }
  std::vector<std::size_t> roots;
  for (std::size_t l = 0; l < spec.links.size(); ++l) {
    const std::size_t root = uf.find(l);
    if (root == l && root_has_path[root]) roots.push_back(l);
    shard_of_link[l] = root;
  }
  std::vector<std::size_t> shard_index(spec.links.size(), 0);
  for (std::size_t s = 0; s < roots.size(); ++s) shard_index[roots[s]] = s;

  ShardPartition partition;
  partition.shards.resize(roots.size());

  // Links: ascending global order within each shard; remember the global →
  // local renumbering for hop remapping.
  std::vector<std::size_t> local_link(spec.links.size(), 0);
  for (std::size_t l = 0; l < spec.links.size(); ++l) {
    FleetShard& shard = partition.shards[shard_index[shard_of_link[l]]];
    local_link[l] = shard.spec.links.size();
    LinkSpec link = spec.links[l];
    // Pin the global trace track so a sharded run's link traces stay
    // attributable to the original topology's link ids.
    if (link.trace_track == 0) {
      link.trace_track = obs::kLinkTrackBase + static_cast<std::uint32_t>(l);
    }
    shard.spec.links.push_back(std::move(link));
    shard.link_ids.push_back(l);
  }

  // Paths: ascending global order; hops renumbered into the shard.
  std::vector<std::size_t> shard_of_path(spec.paths.size(), 0);
  std::vector<std::size_t> local_path(spec.paths.size(), 0);
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    const std::size_t s = shard_index[shard_of_link[spec.paths[p].hops[0]]];
    shard_of_path[p] = s;
    FleetShard& shard = partition.shards[s];
    local_path[p] = shard.spec.paths.size();
    PathSpec path;
    path.name = spec.paths[p].name;
    path.hops.reserve(spec.paths[p].hops.size());
    for (const std::size_t hop : spec.paths[p].hops) {
      path.hops.push_back(local_link[hop]);
    }
    shard.spec.paths.push_back(std::move(path));
    shard.path_ids.push_back(p);
  }

  // Clients: a plan lands in its video path's shard, keeping arrival order
  // (plans are arrival-sorted; filtering preserves that). Local ids are the
  // rank of the global id within the shard — a monotone renumbering, so
  // same-time tie-breaks by id compare identically in the sub-simulation.
  const bool split_audio = !spec.audio_assignment.empty();
  for (const ClientPlan& plan : plans) {
    const std::size_t s = shard_index[shard_of_link[spec.paths[video_path_of(spec, plan.id)].hops[0]]];
    partition.shards[s].plans.push_back(plan);
  }
  for (FleetShard& shard : partition.shards) {
    shard.client_ids.reserve(shard.plans.size());
    for (const ClientPlan& plan : shard.plans) shard.client_ids.push_back(plan.id);
    std::sort(shard.client_ids.begin(), shard.client_ids.end());
    // Explicit per-local-client assignments: with vector length == client
    // count, `local_id % size` resolves each client exactly.
    shard.spec.video_assignment.resize(shard.client_ids.size());
    if (split_audio) shard.spec.audio_assignment.resize(shard.client_ids.size());
    for (std::size_t local = 0; local < shard.client_ids.size(); ++local) {
      const int global_id = shard.client_ids[local];
      shard.spec.video_assignment[local] = local_path[video_path_of(spec, global_id)];
      if (split_audio) {
        shard.spec.audio_assignment[local] = local_path[audio_path_of(spec, global_id)];
      }
    }
    for (ClientPlan& plan : shard.plans) {
      const auto at = std::lower_bound(shard.client_ids.begin(),
                                       shard.client_ids.end(), plan.id);
      plan.id = static_cast<int>(at - shard.client_ids.begin());
    }
  }
  return partition;
}

FleetResult run_fleet_sharded(const Content& content, const ManifestView& view,
                              const BandwidthTrace& bottleneck,
                              const FleetConfig& config) {
  assert(config.topology.has_value() && "shard runner needs a topology");
  const std::vector<ClientPlan> plans = plan_population(config);
  ShardPartition partition = partition_fleet(*config.topology, plans);

  if (partition.shards.size() <= 1) {
    FleetConfig serial = config;
    serial.threads = 1;
    FleetScheduler scheduler(content, view, bottleneck, serial);
    return scheduler.run();
  }

  // The streaming decision is global (the threshold compares the *fleet*
  // size); shards then force it on or off explicitly so a small shard of a
  // huge fleet cannot fall back to full logs.
  const bool streaming = config.streaming.enabled_for(plans.size());

  // Prototype without the global topology: copying `config` per shard and
  // then assigning the sub-spec over it would leave every scheduler's
  // assignment vectors at full-population capacity (vector copy-assignment
  // never shrinks) — O(shards × clients) resident memory at 1M clients.
  FleetConfig proto = config;
  proto.topology.reset();
  proto.threads = 1;
  proto.streaming.client_threshold =
      streaming ? 0 : std::numeric_limits<std::size_t>::max();
  // Cache-aware fleets: build the origin catalog ONCE and share it
  // read-only across every shard's CdnState (the caches themselves are
  // shard-local — a cached link and all its paths form one component).
  bool any_cache = false;
  for (const LinkSpec& link : config.topology->links) {
    any_cache |= link.cache.has_value();
  }
  if (any_cache && proto.cdn.catalog == nullptr) {
    proto.cdn.catalog = make_fleet_catalog(content, proto.cdn.storage);
  }

  // Traced runs: one Tracer per shard, so none has two writers; appended to
  // the run's in shard-id order after the join.
  obs::Tracer* const tracer = config.session.tracer;
  std::vector<obs::Tracer> traces;
  if (tracer != nullptr) {
    traces.assign(partition.shards.size(), obs::Tracer(tracer->categories()));
  }

  std::vector<std::unique_ptr<FleetScheduler>> schedulers;
  schedulers.reserve(partition.shards.size());
  for (std::size_t s = 0; s < partition.shards.size(); ++s) {
    const FleetShard& shard = partition.shards[s];
    FleetConfig sub = proto;
    sub.client_count = static_cast<int>(shard.plans.size());
    sub.topology = shard.spec;
    if (tracer != nullptr) sub.session.tracer = &traces[s];
    schedulers.push_back(
        std::make_unique<FleetScheduler>(content, view, bottleneck, std::move(sub)));
  }

  // Phase 1 — engines, concurrently; results keyed by shard id (completion
  // order never leaks: util/parallel.h). Sessions trace under their global
  // client ids.
  std::vector<FleetResult> results = fan_out_ordered(
      partition.shards.size(), config.threads, [&](std::size_t s) {
        return schedulers[s]->run_engine(partition.shards[s].plans,
                                         &partition.shards[s].client_ids);
      });
  for (obs::Tracer& trace : traces) tracer->append(std::move(trace));

  // Phase 2 — close every shard's link books at the global end time, so
  // idle tails advance exactly as the whole-topology serial run's finalize.
  double end_time = 0.0;
  for (const FleetResult& r : results) end_time = std::max(end_time, r.end_time_s);
  for (std::size_t s = 0; s < results.size(); ++s) {
    schedulers[s]->close_links(results[s], end_time);
  }

  // Phase 3 — deterministic merge in shard-id order.
  FleetResult merged;
  merged.end_time_s = end_time;
  merged.split_audio = !config.topology->audio_assignment.empty();
  merged.links.resize(config.topology->links.size());
  merged.paths.resize(config.topology->paths.size());
  if (streaming) {
    merged.streaming.emplace(config.streaming.relative_error);
    merged.streaming->paths.resize(config.topology->paths.size());
  } else {
    merged.clients.reserve(plans.size());
  }
  if (config.telemetry.enabled) {
    // Pre-seed the global link series (declaration order, names from the
    // spec) so per-shard merges land on the right global slots via
    // shard.link_ids even when a shard saw no traffic.
    merged.timeline.emplace();
    merged.timeline->bin_s = config.telemetry.bin_s > 0.0 ? config.telemetry.bin_s : 1.0;
    merged.timeline->links.resize(config.topology->links.size());
    for (std::size_t l = 0; l < config.topology->links.size(); ++l) {
      merged.timeline->links[l].name = config.topology->links[l].name;
    }
  }
  for (std::size_t s = 0; s < results.size(); ++s) {
    const FleetShard& shard = partition.shards[s];
    FleetResult& result = results[s];
    merged.steps += result.steps;
    merged.double_removes += result.double_removes;
    merged.client_digest += result.client_digest;
    merge_profiles(merged.profile, result.profile);
    for (std::size_t l = 0; l < shard.link_ids.size(); ++l) {
      merged.links[shard.link_ids[l]] = std::move(result.links[l]);
    }
    for (std::size_t p = 0; p < shard.path_ids.size(); ++p) {
      merged.paths[shard.path_ids[p]] = std::move(result.paths[p]);
    }
    for (CdnStats& cdn : result.cdns) {
      // Rewrite the shard-local link index to the global topology's.
      cdn.link = shard.link_ids[cdn.link];
      merged.cdns.push_back(std::move(cdn));
    }
    if (merged.timeline.has_value() && result.timeline.has_value()) {
      // Integer-accumulator merge in shard-id order; link_ids maps the
      // shard's local link series onto the global slots seeded above.
      merged.timeline->merge(*result.timeline, &shard.link_ids);
    }
    if (streaming) {
      merged.streaming->merge(*result.streaming, &shard.path_ids);
    } else {
      for (ClientResult& client : result.clients) {
        client.id = shard.client_ids[static_cast<std::size_t>(client.id)];
        client.video_path = static_cast<int>(
            shard.path_ids[static_cast<std::size_t>(client.video_path)]);
        client.audio_path = static_cast<int>(
            shard.path_ids[static_cast<std::size_t>(client.audio_path)]);
        merged.clients.push_back(std::move(client));
      }
    }
  }
  if (!streaming) {
    std::sort(merged.clients.begin(), merged.clients.end(),
              [](const ClientResult& a, const ClientResult& b) { return a.id < b.id; });
  }
  // Shards are visited in shard-id order (smallest link first) but a later
  // shard can own an earlier cached link id; re-sort so the merged order —
  // and hence the fingerprint — matches the serial run's ascending order.
  std::sort(merged.cdns.begin(), merged.cdns.end(),
            [](const CdnStats& a, const CdnStats& b) { return a.link < b.link; });
  // Pad every merged series to the common bin count and restore the serial
  // run's cdn ordering (ascending link index).
  if (merged.timeline.has_value()) merged.timeline->normalize();
  merged.video_link = merged.links.front();
  merged.audio_link = merged.video_link;
  return merged;
}

}  // namespace demuxabr::fleet
