#include "fleet/scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "fleet/event_heap.h"
#include "fleet/shard.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/indexed_min_heap.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace demuxabr::fleet {
namespace {

/// Out of line so the throw stays off the drain loop's hot path.
[[noreturn]] [[gnu::cold]] [[gnu::noinline]] void throw_drain_wedged(double t) {
  throw std::logic_error(format("event-heap engine wedged at t=%g", t));
}

}  // namespace

FleetScheduler::FleetScheduler(const Content& content, ManifestView view,
                               BandwidthTrace bottleneck, FleetConfig config)
    : content_(content),
      view_(std::move(view)),
      config_(std::move(config)),
      topology_(config_.topology.has_value()
                    ? *config_.topology
                    : TopologySpec::single(std::move(bottleneck)),
                &arena_) {
  if (topology_.has_caches()) {
    // Cache-aware run: one shard-local cache plane routing every session's
    // flows. The shard runner pre-builds the catalog and shares it
    // read-only across shards; a serial run builds its own here. Only a
    // configured spec can declare caches.
    catalog_ = config_.cdn.catalog != nullptr
                   ? config_.cdn.catalog
                   : make_fleet_catalog(content_, config_.cdn.storage);
    cdn_ = std::make_unique<CdnState>(*config_.topology, topology_, catalog_);
  }
  if (config_.telemetry.enabled) {
    // Build the shard-local timeline accumulator. Link slot order matches
    // the topology's link-declaration order, so the shard runner's link_ids
    // map applies directly.
    std::vector<std::string> link_names;
    link_names.reserve(topology_.link_count());
    for (std::size_t l = 0; l < topology_.link_count(); ++l) {
      link_names.push_back(topology_.link_name(l));
    }
    std::vector<double> ladder;
    ladder.reserve(content_.ladder().video().size());
    for (const TrackInfo& track : content_.ladder().video()) {
      ladder.push_back(track.avg_kbps);
    }
    telemetry_ = std::make_unique<obs::TimelineShard>(
        config_.telemetry, std::move(ladder), std::move(link_names));
    topology_.set_telemetry(telemetry_.get());
    if (cdn_ != nullptr) cdn_->set_telemetry(telemetry_.get());
  }
  topology_.set_tracer(config_.session.tracer);
}

FleetScheduler::Client& FleetScheduler::admit(const ClientPlan& plan) {
  auto client = std::make_unique<Client>();
  client->plan = plan;
  client->player = config_.players[plan.player_index].factory();

  Network network;
  const std::size_t video_path = topology_.video_path_for(plan.id);
  const std::size_t audio_path = topology_.audio_path_for(plan.id);
  client->video_path = static_cast<int>(video_path);
  client->audio_path = static_cast<int>(audio_path);
  network.video_link = &topology_.path_channel(video_path);
  network.audio_link = &topology_.path_channel(audio_path);
  network.rtt_s = config_.rtt_s;
  network.router = cdn_.get();  // null for cache-less fleets

  SessionConfig session_config = config_.session;
  // No fleet reader needs per-tick series; the §3.4 imbalance is in totals.
  session_config.record_series = false;
  if (streaming_) {
    // Streaming-metrics mode: no per-session vectors either — the session
    // maintains SessionTotals only (O(1) memory per session).
    session_config.minimal_log = true;
  }
  session_config.start_time_s = plan.arrival_s;
  // The base max_sim_time_s is the per-client budget; the session cap is
  // absolute wall time.
  session_config.max_sim_time_s = plan.arrival_s + config_.session.max_sim_time_s;
  // Completion-registry tokens on the shared links: audio 2*id, video 2*id+1.
  session_config.flow_token_base = 2u * static_cast<std::uint32_t>(plan.id);
  // One trace track per session, keyed by its fleet-wide client id.
  const int id = global_id(static_cast<std::uint32_t>(plan.id));
  session_config.trace_track = static_cast<std::uint32_t>(id);
  // Pending-delivery queues (cache-aware fleets) draw from the shard arena.
  session_config.arena = &arena_;
  session_config.telemetry = telemetry_.get();
  if (telemetry_ != nullptr) telemetry_->session_started(plan.arrival_s);
  if (obs::Tracer* tr = session_config.tracer) {
    tr->name_track(session_config.trace_track,
                   format("c%d %s", id, plan.player_label.c_str()));
  }

  client->session = std::make_unique<StreamingSession>(
      content_, view_, std::move(network), *client->player, session_config);
  client->session->start();

  auto& slot = slots_[static_cast<std::size_t>(plan.id)];
  slot = std::move(client);
  return *slot;
}

void FleetScheduler::finalize_client(Client& client) {
  ClientResult outcome;
  outcome.id = client.plan.id;
  outcome.player = client.plan.player_label;
  outcome.arrival_s = client.plan.arrival_s;
  outcome.video_path = client.video_path;
  outcome.audio_path = client.audio_path;
  outcome.departed_early = !client.session->log().completed &&
                           client.plan.leave_at_s <= client.session->now();
  outcome.log = client.session->finish();
  outcome.qoe = compute_qoe(outcome.log);
  if (telemetry_ != nullptr) {
    // Session-clock departure time: digest-covered, so engine-identical.
    telemetry_->session_departed(outcome.log.end_time_s);
  }
  // Wrapping uint64 sum of per-client hashes: retirement order (which
  // differs between engines and shard decompositions) cannot leak.
  result_.client_digest += client_outcome_digest(outcome);
  if (streaming_) {
    result_.streaming->add_client(outcome);
  } else {
    result_.clients.push_back(std::move(outcome));
  }
  // Release the session and player: long fleets churn through thousands of
  // clients and only a fraction are ever concurrently active.
  client.session.reset();
  client.player.reset();
}

FleetResult FleetScheduler::run() {
  assert(!config_.players.empty() && "FleetConfig::players must be non-empty");
  return run_plans(plan_population(config_));
}

FleetResult FleetScheduler::run_plans(const std::vector<ClientPlan>& plans) {
  FleetResult result = run_engine(plans);
  close_links(result, result.end_time_s);
  return result;
}

FleetResult FleetScheduler::run_engine(const std::vector<ClientPlan>& plans,
                                       const std::vector<int>* client_ids) {
  assert(!config_.players.empty() && "FleetConfig::players must be non-empty");
  client_ids_ = client_ids;
  streaming_ = config_.streaming.enabled_for(plans.size());
  if (streaming_) {
    result_.streaming.emplace(config_.streaming.relative_error);
    result_.streaming->paths.resize(topology_.path_count());
  } else {
    result_.clients.reserve(plans.size());
  }
  result_.split_audio = topology_.split_audio();
  slots_.resize(plans.size());

  // Trace tracks: links and the engine live in their own id namespaces.
  topology_.name_trace_tracks();
  if (obs::Tracer* tr = config_.session.tracer) {
    tr->name_track(obs::kEngineTrack, config_.engine == Engine::kBarrier
                                          ? "engine barrier"
                                          : "engine event_heap");
  }

  const double end_time = config_.engine == Engine::kBarrier ? run_barrier(plans)
                                                             : run_event_heap(plans);

  // Clients finalize in retirement order; re-sort to client-id order so the
  // result layout is stable regardless of who finished first.
  std::sort(result_.clients.begin(), result_.clients.end(),
            [](const ClientResult& a, const ClientResult& b) { return a.id < b.id; });
  result_.end_time_s = end_time;
  client_ids_ = nullptr;
  return std::move(result_);
}

void FleetScheduler::close_links(FleetResult& result, double end_time) {
  topology_.finalize(end_time);
  result.links = topology_.link_stats();
  result.paths = topology_.path_stats();
  result.double_removes = topology_.double_removes();
  // Aliases kept for single-link consumers; the fingerprint serializes
  // result.links instead.
  result.video_link = result.links.front();
  result.audio_link = result.video_link;
  if (cdn_ != nullptr) result.cdns = cdn_->stats();
  if (telemetry_ != nullptr) {
    // After link finalization: the finalize walks emit the idle-tail
    // segments, so the binned link series cover [0, end_time].
    result.timeline = telemetry_->take();
  }
}

double FleetScheduler::run_barrier(const std::vector<ClientPlan>& plans) {
  std::vector<Client*> active;  ///< client-id order within every barrier
  // Sorted departure index: finite leave times keyed by client id. Makes
  // the per-step churn check and the churn horizon O(1) instead of O(N)
  // scans over every active session.
  IndexedMinHeap departures;
  double now = 0.0;
  std::size_t next_arrival = 0;

  const auto admit_due = [&] {
    while (next_arrival < plans.size() && plans[next_arrival].arrival_s <= now) {
      Client& client = admit(plans[next_arrival]);
      ++next_arrival;
      // Keep `active` in client-id order: the event-heap engine breaks
      // same-time ties by client id, so the barrier must fire them the
      // same way (arrival order and id order differ under Poisson).
      const auto at = std::lower_bound(
          active.begin(), active.end(), &client,
          [](const Client* a, const Client* b) { return a->plan.id < b->plan.id; });
      active.insert(at, &client);
      if (std::isfinite(client.plan.leave_at_s)) {
        departures.update(static_cast<std::uint32_t>(client.plan.id),
                          client.plan.leave_at_s);
      }
    }
  };

  admit_due();
  while (!active.empty() || next_arrival < plans.size()) {
    // Churn: abandon sessions whose planned departure has passed. The abort
    // releases their shared-link slots before anyone computes a horizon.
    while (!departures.empty() && departures.top().key <= now) {
      const std::uint32_t id = departures.pop().id;
      Client& client = *slots_[id];
      if (!client.session->done()) client.session->abort_session();
    }
    // Retire finished sessions (content end, churn, or sim-time cap).
    for (auto it = active.begin(); it != active.end();) {
      if ((*it)->session->done()) {
        departures.erase(static_cast<std::uint32_t>((*it)->plan.id));
        finalize_client(**it);
        it = active.erase(it);
      } else {
        ++it;
      }
    }
    if (active.empty()) {
      if (next_arrival >= plans.size()) break;
      now = std::max(now, plans[next_arrival].arrival_s);
      admit_due();
      continue;
    }

    // Phase 1: registration barrier — every session's due flows join their
    // links before any horizon is computed.
    for (Client* client : active) client->session->begin_step();

    // Phase 2: global horizon.
    double t = std::numeric_limits<double>::infinity();
    for (Client* client : active) {
      t = std::min(t, client->session->next_event_time());
    }
    if (next_arrival < plans.size()) {
      t = std::min(t, plans[next_arrival].arrival_s);
    }
    if (!departures.empty()) t = std::min(t, departures.top().key);
    t = std::max(t, now);

    // Phase 3: integrate everyone through [now, t] *before* any events fire
    // — a completion inside integrate order would change link counts
    // mid-interval for sessions integrated later.
    for (Client* client : active) client->session->integrate_to(t);
    now = t;

    // Phase 4: event barrier, client-id order (deterministic).
    for (Client* client : active) client->session->process_events();
    ++result_.steps;

    // Phase 5: admissions exactly at t join before the next barrier.
    admit_due();
  }
  return now;
}

double FleetScheduler::run_event_heap(const std::vector<ClientPlan>& plans) {
  // The heap's "link" entities are carriers with completion registries:
  // every channel of the topology, including the derived cache-hit prefix
  // channels above path_count() — flows routed onto them must surface
  // their completions like any other carrier.
  std::vector<Channel*> links;
  for (std::size_t p = 0; p < topology_.channel_count(); ++p) {
    links.push_back(&topology_.path_channel(p));
  }

  EventHeap heap(static_cast<std::uint32_t>(plans.size()),
                 static_cast<std::uint32_t>(links.size()), &arena_);

  // Self-profiling (obs/profile.h): phase wall-clock only when requested —
  // a null PhaseStats* makes PhaseTimer clock-free — heap counters always.
  obs::EngineProfile& profile = result_.profile;
  profile.enabled = config_.profile;
  obs::PhaseStats* const drain_stats = config_.profile ? &profile.drain : nullptr;
  obs::PhaseStats* const register_stats =
      config_.profile ? &profile.register_phase : nullptr;
  obs::PhaseStats* const admit_stats = config_.profile ? &profile.admit : nullptr;
  // Per-drain-phase link re-keying over the *dirty* set: the topology
  // records the channels whose epochs moved since the last call (population
  // changes mark exactly the affected set), so only those are re-synced.
  // The heap's link keys are exact after every call — the same invariant
  // the historical sync-all-links-after-every-event loop maintained, at a
  // fraction of the checks.
  topology_.clear_dirty();
  const auto sync_dirty = [&] {
    for (const std::uint32_t idx : topology_.dirty_channels()) {
      heap.sync_link(idx, *links[idx]);
    }
    topology_.clear_dirty();
  };
  // A session is keyed on its own (link-independent) events plus its
  // planned departure; flow completions surface through the link keys.
  const auto schedule = [&](Client& client) {
    const double t = std::min(client.session->next_local_event_time(),
                              client.plan.leave_at_s);
    heap.schedule_session(static_cast<std::uint32_t>(client.plan.id), t);
  };

  double now = 0.0;
  // Latest clock at which a session retired inside run_idle_ticks, ahead of
  // `now`. The run ends at the later of the two: its last retirement.
  double inline_end = 0.0;
  std::size_t next_arrival = 0;
  const auto admit_due = [&] {
    obs::PhaseTimer timer(admit_stats);
    while (next_arrival < plans.size() && plans[next_arrival].arrival_s <= now) {
      Client& client = admit(plans[next_arrival]);
      ++next_arrival;
      if (client.session->done()) {
        // Born at (or past) its cap: retire immediately — the barrier
        // engine's retire scan does the same before ever stepping it.
        finalize_client(client);
        continue;
      }
      schedule(client);
    }
  };

  // Reusable drain scratch: sessions processed at this timestamp, plus the
  // batch of session entries popped in phase A. Steady-state drain work
  // allocates nothing — both vectors reach their high-water capacity early,
  // and even that growth comes from the shard arena, not the heap.
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> touched{
      ArenaAllocator<std::uint32_t>(&arena_)};
  std::vector<std::uint32_t, ArenaAllocator<std::uint32_t>> batch{
      ArenaAllocator<std::uint32_t>(&arena_)};
  admit_due();
  while (true) {
    const double t_event =
        heap.empty() ? std::numeric_limits<double>::infinity() : heap.top().t;
    const double t_arrival = next_arrival < plans.size()
                                 ? plans[next_arrival].arrival_s
                                 : std::numeric_limits<double>::infinity();
    if (!std::isfinite(t_event) && !std::isfinite(t_arrival)) break;
    if (t_arrival < t_event) {
      now = t_arrival;
      admit_due();
      continue;
    }

    // Drain every event at this timestamp, then run registrations. The
    // barrier engine fires all of a step's events before the *next* step's
    // begin_step registers flows, so flow removals at t must land before
    // additions at t here too (same intermediate counts, same link peaks).
    //
    // The drain is batched by timestamp (DESIGN.md §12): every entity due
    // at t is popped and processed in (key, id) pop order with ONE dirty
    // link re-sync per phase instead of one full sweep per event. This is
    // byte-identical to the per-event-sync loop because (a) session ids
    // sit below every link id, so all due sessions pop before any link
    // entry regardless of how link keys move at t, (b) session keys never
    // change during a drain (re-keying waits for the registration phase),
    // and (c) a mutation at t can never pull a completion below t —
    // service integrals are continuous, so a target above V(t) stays
    // above it no matter how the population changes at t.
    const double t = t_event;
    now = t;
    touched.clear();
    // Phase A pops at equal key come off the heap in ascending id order (the
    // (key, id) tie-break), so `touched` stays sorted and duplicate-free
    // until a link event fires; only phase B makes the sort below necessary.
    bool touched_unordered = false;
    int guard = 0;
    std::optional<obs::PhaseTimer> drain_timer(std::in_place, drain_stats);

    const auto process = [&](std::uint32_t id, bool is_link) {
      DMX_TRACE_INSTANT(config_.session.tracer, obs::kCatEngine,
                        obs::kEngineTrack, obs::kLanePlayback, "pop", t,
                        obs::TraceArgs()
                            .kv("link", is_link ? 1 : 0)
                            .kv("client", global_id(id)));
      Client& client = *slots_[id];
      StreamingSession& session = *client.session;
      session.integrate_to(t);
      session.process_events();
      if (!session.done() && client.plan.leave_at_s <= t) {
        session.abort_session();
      }
      if (session.done()) {
        heap.erase_session(id);
        finalize_client(client);
      } else {
        // Rescheduling waits for the registration phase below: a flow whose
        // RTT ends exactly at t would otherwise keep the key pinned at t.
        touched.push_back(id);
      }
      ++result_.steps;
    };

    // Phase A: every session with its own event at t. One batch pop is
    // exhaustive — processing a session cannot schedule another session at
    // t (keys re-key only at registration), so the due set is exactly what
    // the heap holds now.
    batch.clear();
    while (!heap.empty() && !heap.top().is_link && heap.top().t <= t) {
      batch.push_back(heap.top().index);
      heap.pop();
    }
    for (const std::uint32_t id : batch) process(id, false);
    sync_dirty();

    // Phase B: link completions at t, one at a time — firing one can
    // surface another (on the same link, or on a different link through a
    // population change), and the (key, id) pop order must decide what
    // fires next exactly as the per-event-sync loop did.
    while (!heap.empty() && heap.top().t <= t) {
      if (++guard > 10000000) throw_drain_wedged(t);
      const EventHeap::Event event = heap.top();
      // Only link entries can remain: phase A drained every due session and
      // session keys cannot move during the drain.
      assert(event.is_link && "session entry surfaced during link phase");
      // The link's earliest registered completion is due: route the event
      // to the owning session (token = 2*id + is_video). Firing it bumps
      // the link epoch, so sync_dirty() below re-keys or clears the entry.
      Channel& link = *links[event.index];
      if (!link.has_completions()) {
        heap.sync_link(static_cast<std::uint32_t>(event.index), link, true);
        continue;
      }
      process(link.earliest_completion_token() / 2u, true);
      touched_unordered = true;
      sync_dirty();
    }
    drain_timer.reset();

    // Registration phase at t, in client-id order (the barrier's phase 1):
    // flows whose RTT ended join their links, every touched session with
    // nothing in flight runs its idle ticks in place (DESIGN.md §12), and
    // every session still running gets its next event key.
    std::optional<obs::PhaseTimer> register_timer(std::in_place, register_stats);
    if (touched_unordered) {
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    }
    for (const std::uint32_t id : touched) {
      Client& client = *slots_[id];
      if (!client.session) continue;  // finalized later in the same drain
      StreamingSession& session = *client.session;
      session.begin_step();
      // steps counts session event visits, inline ticks included.
      result_.steps += session.run_idle_ticks(client.plan.leave_at_s);
      if (session.done()) {
        // Retired inside its idle run, at its own clock (content end or the
        // sim-time cap on a tick): its heap entry, if phase B left one, goes.
        heap.erase_session(id);
        inline_end = std::max(inline_end, session.now());
        finalize_client(client);
        continue;
      }
      schedule(client);
    }
    sync_dirty();
    register_timer.reset();

    // Admissions exactly at t join after the events at t, as in the barrier.
    admit_due();
  }
  profile.heap_pops = heap.stats().pops;
  profile.link_sync_checks = heap.stats().sync_checks;
  profile.link_sync_refreshes = heap.stats().sync_refreshes;
  return std::max(now, inline_end);
}

FleetResult run_fleet(const Content& content, const ManifestView& view,
                      const BandwidthTrace& bottleneck, const FleetConfig& config) {
  if (config.threads != 1 && config.topology.has_value()) {
    // Multi-component topologies run their shards concurrently; the runner
    // falls back to the serial path when the topology is one component.
    return run_fleet_sharded(content, view, bottleneck, config);
  }
  FleetScheduler scheduler(content, view, bottleneck, config);
  return scheduler.run();
}

std::vector<FleetReplication> run_replications(const Content& content,
                                               const ManifestView& view,
                                               const BandwidthTrace& bottleneck,
                                               const FleetConfig& config,
                                               const ReplicationOptions& options) {
  const int count = std::max(1, options.replications);
  // One Tracer per replication, so none has two writers; appended to the
  // caller's in replication order after the join.
  obs::Tracer* const tracer = config.session.tracer;
  std::vector<obs::Tracer> traces;
  if (tracer != nullptr) {
    traces.assign(static_cast<std::size_t>(count), obs::Tracer(tracer->categories()));
  }
  // Deterministic fan-out / ordered-merge (util/parallel.h): results come
  // back in replication order for every thread count.
  std::vector<FleetReplication> reps = fan_out_ordered(
      static_cast<std::size_t>(count), options.threads, [&](std::size_t r) {
        FleetReplication rep;
        rep.seed = config.seed + static_cast<std::uint64_t>(r) * options.seed_stride;
        FleetConfig seeded = config;
        seeded.seed = rep.seed;
        if (tracer != nullptr) seeded.session.tracer = &traces[r];
        rep.result = run_fleet(content, view, bottleneck, seeded);
        rep.metrics = compute_fleet_metrics(rep.result);
        return rep;
      });
  for (obs::Tracer& trace : traces) tracer->append(std::move(trace));
  return reps;
}

}  // namespace demuxabr::fleet
