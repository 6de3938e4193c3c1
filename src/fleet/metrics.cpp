#include "fleet/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/strings.h"

namespace demuxabr::fleet {
namespace {

/// Jain's index from exact moment sums — float-for-float the formula of
/// util/stats.h jain_fairness, evaluated on accumulated Σx / Σx² instead of
/// a materialized vector (the streaming path never holds one).
double jain_from_moments(double sum, double sq_sum, std::size_t n) {
  if (n == 0) return 0.0;
  if (sq_sum <= 0.0) return 1.0;
  return sum * sum / (static_cast<double>(n) * sq_sum);
}

/// Per-client derived scalars shared by the full and streaming aggregation
/// paths (one definition so the two modes cannot drift).
struct ClientScalars {
  double video_kbps = 0.0;
  double throughput = 0.0;  ///< bytes per active second
  double stall_ratio = 0.0;
  double startup_s = 0.0;
  double imbalance_s = 0.0;
  double active_s = 0.0;  ///< session wall time (end − arrival)
};

ClientScalars derive_scalars(const ClientResult& client) {
  ClientScalars s;
  s.video_kbps = client.qoe.avg_video_kbps;
  s.active_s = client.log.end_time_s - client.arrival_s;
  const double active_s = s.active_s;
  if (active_s > 0.0) {
    s.throughput =
        static_cast<double>(client.log.total_downloaded_bytes()) / active_s;
    s.stall_ratio = client.log.total_stall_s() / active_s;
  }
  s.startup_s = client.log.startup_delay_s;
  s.imbalance_s = client.log.mean_buffer_imbalance_s();
  return s;
}

}  // namespace

StreamingFleetStats::StreamingFleetStats(double relative_error)
    : video_kbps(relative_error),
      stall_ratio(relative_error),
      startup_delay_s(relative_error),
      buffer_imbalance_s(relative_error) {}

void StreamingFleetStats::add_client(const ClientResult& client) {
  const ClientScalars s = derive_scalars(client);
  ++clients;
  if (client.log.completed) ++completed;
  if (client.departed_early) ++departed_early;
  qoe_sum += client.qoe.qoe_score;
  active_s_sum += s.active_s;
  video_kbps_sum += s.video_kbps;
  video_kbps_sq_sum += s.video_kbps * s.video_kbps;
  throughput_sum += s.throughput;
  throughput_sq_sum += s.throughput * s.throughput;
  video_kbps.add(s.video_kbps);
  stall_ratio.add(s.stall_ratio);
  startup_delay_s.add(s.startup_s);
  buffer_imbalance_s.add(s.imbalance_s);
  PathAcc& acc = paths[static_cast<std::size_t>(client.video_path)];
  ++acc.clients;
  acc.video_sum += s.video_kbps;
  acc.video_sq_sum += s.video_kbps * s.video_kbps;
  acc.throughput_sum += s.throughput;
  acc.throughput_sq_sum += s.throughput * s.throughput;
  acc.stall_ratio_sum += s.stall_ratio;
}

void StreamingFleetStats::merge(const StreamingFleetStats& other,
                                const std::vector<std::size_t>* path_map) {
  clients += other.clients;
  completed += other.completed;
  departed_early += other.departed_early;
  qoe_sum += other.qoe_sum;
  active_s_sum += other.active_s_sum;
  video_kbps_sum += other.video_kbps_sum;
  video_kbps_sq_sum += other.video_kbps_sq_sum;
  throughput_sum += other.throughput_sum;
  throughput_sq_sum += other.throughput_sq_sum;
  video_kbps.merge(other.video_kbps);
  stall_ratio.merge(other.stall_ratio);
  startup_delay_s.merge(other.startup_delay_s);
  buffer_imbalance_s.merge(other.buffer_imbalance_s);
  for (std::size_t p = 0; p < other.paths.size(); ++p) {
    PathAcc& into = paths[path_map != nullptr ? (*path_map)[p] : p];
    const PathAcc& from = other.paths[p];
    into.clients += from.clients;
    into.video_sum += from.video_sum;
    into.video_sq_sum += from.video_sq_sum;
    into.throughput_sum += from.throughput_sum;
    into.throughput_sq_sum += from.throughput_sq_sum;
    into.stall_ratio_sum += from.stall_ratio_sum;
  }
}

std::uint64_t client_outcome_digest(const ClientResult& client) {
  // FNV-1a, folding each field's exact bit pattern. Client ids and path
  // indices are deliberately absent: the shard runner retires clients under
  // shard-local ids, and the digest must not see the renumbering.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  const auto mix_d = [&mix](double v) { mix(std::bit_cast<std::uint64_t>(v)); };
  for (const char c : client.player) mix(static_cast<unsigned char>(c));
  mix_d(client.arrival_s);
  mix(client.departed_early ? 1u : 0u);
  const SessionLog& log = client.log;
  mix(log.completed ? 1u : 0u);
  mix_d(log.startup_delay_s);
  mix_d(log.end_time_s);
  const SessionTotals& t = log.totals;
  mix(static_cast<std::uint64_t>(t.downloaded_bytes));
  mix(static_cast<std::uint64_t>(t.download_records));
  mix(static_cast<std::uint64_t>(t.abandoned_records));
  mix(static_cast<std::uint64_t>(t.wasted_bytes));
  mix(static_cast<std::uint64_t>(t.stall_events));
  mix_d(t.stall_s);
  mix_d(t.video_kbps_sum);
  mix_d(t.audio_kbps_sum);
  mix(static_cast<std::uint64_t>(t.video_chunks));
  mix(static_cast<std::uint64_t>(t.audio_chunks));
  mix(static_cast<std::uint64_t>(t.video_switches));
  mix(static_cast<std::uint64_t>(t.audio_switches));
  mix_d(t.switch_cost_kbps);
  mix_d(t.imbalance_integral);
  mix_d(t.imbalance_span_s);
  return h;
}

FleetMetrics compute_fleet_metrics(const FleetResult& result) {
  FleetMetrics metrics;

  if (result.streaming.has_value()) {
    const StreamingFleetStats& s = *result.streaming;
    metrics.clients = static_cast<int>(s.clients);
    metrics.completed = static_cast<int>(s.completed);
    metrics.departed_early = static_cast<int>(s.departed_early);
    metrics.jain_fairness_video =
        jain_from_moments(s.video_kbps_sum, s.video_kbps_sq_sum, s.clients);
    metrics.jain_fairness_throughput =
        jain_from_moments(s.throughput_sum, s.throughput_sq_sum, s.clients);
    metrics.video_kbps = s.video_kbps.summary();
    metrics.stall_ratio = s.stall_ratio.summary();
    metrics.startup_delay_s = s.startup_delay_s.summary();
    metrics.buffer_imbalance_s = s.buffer_imbalance_s.summary();
    if (s.clients > 0) metrics.mean_qoe = s.qoe_sum / static_cast<double>(s.clients);
    metrics.path_groups.resize(result.paths.size());
    for (std::size_t p = 0; p < result.paths.size(); ++p) {
      FleetMetrics::PathGroup& group = metrics.path_groups[p];
      const StreamingFleetStats::PathAcc& acc = s.paths[p];
      group.name = result.paths[p].name;
      group.clients = static_cast<int>(acc.clients);
      group.jain_fairness_video =
          jain_from_moments(acc.video_sum, acc.video_sq_sum, acc.clients);
      group.jain_fairness_throughput =
          jain_from_moments(acc.throughput_sum, acc.throughput_sq_sum, acc.clients);
      if (acc.clients > 0) {
        group.mean_video_kbps = acc.video_sum / static_cast<double>(acc.clients);
        group.mean_stall_ratio = acc.stall_ratio_sum / static_cast<double>(acc.clients);
      }
    }
    return metrics;
  }

  metrics.clients = static_cast<int>(result.clients.size());

  std::vector<double> video_kbps;
  std::vector<double> throughput;
  std::vector<double> stall_ratio;
  std::vector<double> startup;
  std::vector<double> imbalance;
  video_kbps.reserve(result.clients.size());
  double qoe_sum = 0.0;
  for (const ClientResult& client : result.clients) {
    if (client.log.completed) ++metrics.completed;
    if (client.departed_early) ++metrics.departed_early;
    const ClientScalars s = derive_scalars(client);
    video_kbps.push_back(s.video_kbps);
    throughput.push_back(s.throughput);
    stall_ratio.push_back(s.stall_ratio);
    startup.push_back(s.startup_s);
    imbalance.push_back(s.imbalance_s);
    qoe_sum += client.qoe.qoe_score;
  }

  metrics.jain_fairness_video = jain_fairness(video_kbps);
  metrics.jain_fairness_throughput = jain_fairness(throughput);

  // Per-path groups: fairness *within* each client→edge→core shard, so a
  // congested edge shows up as its own unfair group instead of being
  // averaged away in the fleet-wide numbers.
  metrics.path_groups.resize(result.paths.size());
  std::vector<std::vector<double>> group_video(result.paths.size());
  std::vector<std::vector<double>> group_throughput(result.paths.size());
  std::vector<double> group_stall_sum(result.paths.size(), 0.0);
  for (std::size_t c = 0; c < result.clients.size(); ++c) {
    const auto p = static_cast<std::size_t>(result.clients[c].video_path);
    group_video[p].push_back(video_kbps[c]);
    group_throughput[p].push_back(throughput[c]);
    group_stall_sum[p] += stall_ratio[c];
  }
  for (std::size_t p = 0; p < result.paths.size(); ++p) {
    FleetMetrics::PathGroup& group = metrics.path_groups[p];
    group.name = result.paths[p].name;
    group.clients = static_cast<int>(group_video[p].size());
    group.jain_fairness_video = jain_fairness(group_video[p]);
    group.jain_fairness_throughput = jain_fairness(group_throughput[p]);
    if (group.clients > 0) {
      double sum = 0.0;
      for (const double v : group_video[p]) sum += v;
      group.mean_video_kbps = sum / static_cast<double>(group.clients);
      group.mean_stall_ratio = group_stall_sum[p] / static_cast<double>(group.clients);
    }
  }

  metrics.video_kbps = summarize_percentiles(std::move(video_kbps));
  metrics.stall_ratio = summarize_percentiles(std::move(stall_ratio));
  metrics.startup_delay_s = summarize_percentiles(std::move(startup));
  metrics.buffer_imbalance_s = summarize_percentiles(std::move(imbalance));
  if (!result.clients.empty()) {
    metrics.mean_qoe = qoe_sum / static_cast<double>(result.clients.size());
  }
  return metrics;
}

namespace {

void fingerprint_link(std::ostringstream& out, const LinkStats& stats) {
  out << "link " << stats.name << " "
      << format("observed=%.17g busy=%.17g flow_s=%.17g offered=%.17g "
                "delivered=%.17g peak=%d\n",
                stats.observed_s, stats.busy_s, stats.flow_seconds,
                stats.offered_kbit, stats.delivered_kbit, stats.peak_flows);
}

/// All-integer CDN lines: byte-identical across engines and thread counts
/// by construction (no float accumulation order to worry about).
void fingerprint_cdns(std::ostringstream& out, const FleetResult& result) {
  for (const CdnStats& cdn : result.cdns) {
    out << "cdn " << cdn.link_name << " req=" << cdn.requests
        << " edge=" << cdn.edge_hits << " regional=" << cdn.regional_hits
        << " origin=" << cdn.origin_fetches << " uncache=" << cdn.uncacheable
        << " edge_b=" << cdn.edge_hit_bytes << " regional_b=" << cdn.regional_hit_bytes
        << " origin_b=" << cdn.origin_bytes << " evict=" << cdn.edge_evictions
        << "+" << cdn.regional_evictions << " resident=" << cdn.edge_used_bytes
        << "/" << cdn.edge_objects << "\n";
  }
}

}  // namespace

std::string fleet_fingerprint(const FleetResult& result) {
  std::ostringstream out;
  // `steps` is deliberately absent: it counts engine work units (barriers
  // vs heap events), a diagnostic that must not break cross-engine identity.
  if (result.streaming.has_value()) {
    // Streaming mode kept no per-client logs: the per-client half of the
    // fingerprint collapses to the order-invariant digest plus exact
    // counts. Every field below is bit-identical across engines, thread
    // counts and shard decompositions; float accumulations whose order
    // depends on the merge (qoe_sum, moment sums) are deliberately absent.
    const StreamingFleetStats& s = *result.streaming;
    out << "clients:" << s.clients << format(" end:%.17g", result.end_time_s)
        << " split_audio:" << (result.split_audio ? 1 : 0) << "\n";
    out << "streaming digest:" << format("%016llx",
               static_cast<unsigned long long>(result.client_digest))
        << " completed:" << s.completed << " departed:" << s.departed_early
        << "\n";
  } else {
    out << "clients:" << result.clients.size()
        << format(" end:%.17g", result.end_time_s)
        << " split_audio:" << (result.split_audio ? 1 : 0) << "\n";
    for (const ClientResult& client : result.clients) {
      const SessionLog& log = client.log;
      out << "client " << client.id << " " << client.player
          << format(" arrival=%.17g", client.arrival_s)
          << " departed=" << (client.departed_early ? 1 : 0)
          << " completed=" << (log.completed ? 1 : 0)
          << format(" startup=%.17g end=%.17g", log.startup_delay_s, log.end_time_s)
          << " downloads=" << log.downloads.size()
          << " bytes=" << log.total_downloaded_bytes()
          << " abandoned=" << log.abandoned.size()
          << " wasted=" << log.wasted_bytes() << " stalls=" << log.stall_count()
          << format(" stall_s=%.17g", log.total_stall_s()) << "\nvsel:";
      for (const std::string& id : log.video_selection) out << id << ";";
      out << "\nasel:";
      for (const std::string& id : log.audio_selection) out << id << ";";
      out << "\n";
    }
  }
  // Every link in declaration order; binding_s is deliberately absent from
  // fingerprint_link (like `steps`, attribution is sensitive to tie-break
  // conventions, not to behaviour).
  for (const LinkStats& link : result.links) fingerprint_link(out, link);
  fingerprint_cdns(out, result);
  if (result.timeline.has_value()) out << result.timeline->fingerprint();
  return out.str();
}

std::string summarize(const FleetResult& result, const FleetMetrics& metrics) {
  std::ostringstream out;
  out << format("fleet: %d clients, %d completed, %d churned, %zu steps, end t=%.1fs\n",
                metrics.clients, metrics.completed, metrics.departed_early,
                result.steps, result.end_time_s);
  if (result.streaming.has_value()) {
    out << format(
        "  streaming metrics: percentiles sketch-approximate (±%.1f%% relative), "
        "digest %016llx\n",
        result.streaming->video_kbps.relative_error() * 100.0,
        static_cast<unsigned long long>(result.client_digest));
  }
  out << format("  jain fairness: video bitrate %.4f, throughput %.4f\n",
                metrics.jain_fairness_video, metrics.jain_fairness_throughput);
  out << format("  video kbps: p50=%.0f p90=%.0f min=%.0f max=%.0f mean=%.0f\n",
                metrics.video_kbps.p50, metrics.video_kbps.p90, metrics.video_kbps.min,
                metrics.video_kbps.max, metrics.video_kbps.mean);
  out << format("  stall ratio: p50=%.3f p90=%.3f p99=%.3f max=%.3f\n",
                metrics.stall_ratio.p50, metrics.stall_ratio.p90,
                metrics.stall_ratio.p99, metrics.stall_ratio.max);
  out << format("  startup delay s: p50=%.2f p90=%.2f max=%.2f\n",
                metrics.startup_delay_s.p50, metrics.startup_delay_s.p90,
                metrics.startup_delay_s.max);
  out << format("  A/V buffer imbalance s: p50=%.2f p90=%.2f max=%.2f\n",
                metrics.buffer_imbalance_s.p50, metrics.buffer_imbalance_s.p90,
                metrics.buffer_imbalance_s.max);
  out << format("  mean QoE: %.1f\n", metrics.mean_qoe);
  for (const LinkStats& stats : result.links) {
    out << format(
        "  link %s: utilization=%.3f busy=%.3f avg_flows=%.2f peak_flows=%d",
        stats.name.c_str(), stats.utilization(), stats.busy_fraction(),
        stats.avg_flows(), stats.peak_flows);
    if (result.end_time_s > 0.0) {
      out << format(" binding=%.3f", stats.binding_s / result.end_time_s);
    }
    out << "\n";
  }
  for (const FleetMetrics::PathGroup& group : metrics.path_groups) {
    out << format(
        "  path %s: clients=%d jain_video=%.4f jain_tput=%.4f "
        "mean_kbps=%.0f stall_ratio=%.3f\n",
        group.name.c_str(), group.clients, group.jain_fairness_video,
        group.jain_fairness_throughput, group.mean_video_kbps,
        group.mean_stall_ratio);
  }
  for (const CdnStats& cdn : result.cdns) {
    out << format(
        "  cdn %s: hit=%.3f byte_hit=%.3f regional=%lld origin_mb=%.1f "
        "evictions=%zu resident_mb=%.1f\n",
        cdn.link_name.c_str(), cdn.hit_ratio(), cdn.byte_hit_ratio(),
        static_cast<long long>(cdn.regional_hits),
        static_cast<double>(cdn.origin_bytes) / 1e6, cdn.edge_evictions,
        static_cast<double>(cdn.edge_used_bytes) / 1e6);
  }
  return out.str();
}

}  // namespace demuxabr::fleet
