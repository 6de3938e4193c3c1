// Parallel shard execution (DESIGN.md §10): a TopologySpec whose link graph
// splits into multiple connected components describes causally independent
// sub-fleets — no flow on one component can ever change a rate, epoch or
// completion time on another. partition_fleet() finds the components (union-
// find over links, with each client's video and audio paths coupled into
// the same component, since one session spans both), and run_fleet_sharded()
// runs one event-heap engine per component concurrently on
// fan_out_ordered's workers (util/parallel.h), merging results
// deterministically in shard-id order — the run_replications recipe applied
// *within* one fleet.
//
// Determinism argument: each shard simulates exactly the event sequence the
// whole-topology serial engine would execute restricted to that component.
// Client ids renumber monotonically (rank of global id within the shard),
// so every same-time tie-break compares the same way; link books advance
// only at their own component's population changes (affected sets never
// cross components); and every shard's links close at the *global* max end
// time. The merged fingerprint is therefore byte-identical to the
// threads=1 whole-topology run for any thread count
// (tests/test_fleet_shard.cpp pins {1, 2, 8}).
#pragma once

#include <cstddef>
#include <vector>

#include "fleet/metrics.h"
#include "fleet/population.h"
#include "manifest/view.h"
#include "media/content.h"
#include "net/bandwidth_trace.h"
#include "net/topology.h"

namespace demuxabr::fleet {

/// One connected component of the topology plus its slice of the
/// population, renumbered to local dense ids.
struct FleetShard {
  /// Sub-topology: links/paths in ascending global-index order, hop indices
  /// remapped, explicit per-local-client assignment vectors, trace tracks
  /// pinned to the global link ids.
  TopologySpec spec;
  std::vector<std::size_t> link_ids;  ///< local link index -> global
  std::vector<std::size_t> path_ids;  ///< local path index -> global
  /// This shard's clients, arrival-sorted, ids rewritten to local dense
  /// [0, plans.size()) — by rank of global id, so id-order tie-breaks are
  /// preserved.
  std::vector<ClientPlan> plans;
  std::vector<int> client_ids;  ///< local client id -> global client id
};

/// Partition of a fleet into causally independent shards, ordered by each
/// component's smallest global link index.
struct ShardPartition {
  std::vector<FleetShard> shards;
};

/// Split `spec` into connected components and distribute `plans` (global
/// dense ids) onto them. A client lands in the component of its video path;
/// its audio path is guaranteed co-located (coupled during the union).
/// Throws std::invalid_argument carrying validate()'s message when `spec`
/// is malformed.
ShardPartition partition_fleet(const TopologySpec& spec,
                               const std::vector<ClientPlan>& plans);

/// Run `config` (which must carry a topology) as parallel shards on
/// `config.threads` workers (0 = hardware default) and merge. Byte-
/// identical to the serial whole-topology run; falls back to it when the
/// topology is a single component. `bottleneck` is unused (topology runs
/// ignore it) but keeps the run_fleet signature. A traced config
/// (`config.session.tracer`) traces each shard into a Tracer of its own,
/// sessions on their global client-id tracks, and appends them in shard-id
/// order: the trace is the same for every thread count.
FleetResult run_fleet_sharded(const Content& content, const ManifestView& view,
                              const BandwidthTrace& bottleneck,
                              const FleetConfig& config);

}  // namespace demuxabr::fleet
