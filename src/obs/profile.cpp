#include "obs/profile.h"

#include "util/strings.h"

namespace demuxabr::obs {
namespace {

std::string phase_json(const char* name, const PhaseStats& stats) {
  return format("\"%s\":{\"wall_s\":%.6f,\"calls\":%llu}", name, stats.wall_s,
                static_cast<unsigned long long>(stats.calls));
}

}  // namespace

std::string EngineProfile::to_json() const {
  std::string out = "{";
  out += format("\"enabled\":%s,", enabled ? "true" : "false");
  out += phase_json("drain", drain) + ",";
  out += phase_json("register", register_phase) + ",";
  out += phase_json("admit", admit) + ",";
  out += format(
      "\"heap_pops\":%llu,\"link_sync_checks\":%llu,"
      "\"link_sync_refreshes\":%llu",
      static_cast<unsigned long long>(heap_pops),
      static_cast<unsigned long long>(link_sync_checks),
      static_cast<unsigned long long>(link_sync_refreshes));
  return out + "}";
}

std::string EngineProfile::to_table() const {
  std::string out;
  out += "  phase       wall_s      calls      us/call\n";
  const auto row = [&](const char* name, const PhaseStats& stats) {
    out += format("  %-9s %9.3f %10llu %12.3f\n", name, stats.wall_s,
                  static_cast<unsigned long long>(stats.calls),
                  stats.calls > 0
                      ? stats.wall_s * 1e6 / static_cast<double>(stats.calls)
                      : 0.0);
  };
  row("drain", drain);
  row("register", register_phase);
  row("admit", admit);
  out += format("  total     %9.3f\n", total_wall_s());
  out += format("  heap_pops=%llu link_sync_checks=%llu refreshes=%llu\n",
                static_cast<unsigned long long>(heap_pops),
                static_cast<unsigned long long>(link_sync_checks),
                static_cast<unsigned long long>(link_sync_refreshes));
  return out;
}

}  // namespace demuxabr::obs
