// Forwarding header: the topology lives in net/topology.h, in namespace
// demuxabr. perfbench/runner.cpp still includes this path and names these
// four types as fleet::*; it changes only together with the benchmark, so
// this header stays until then. Everything else includes net/topology.h.
#pragma once

#include "net/topology.h"

namespace demuxabr::fleet {

using demuxabr::CacheSpec;
using demuxabr::LinkStats;
using demuxabr::PathSummary;
using demuxabr::TopologySpec;

}  // namespace demuxabr::fleet
