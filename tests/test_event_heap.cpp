// Property tests for the indexed min-heap under the fleet event engine and
// each Channel's completion registry: a long random stream of update
// (insert + decrease/increase-key), erase and pop operations must track a
// std::multimap oracle exactly — same top, same pop order, same membership.
#include "util/indexed_min_heap.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <utility>

#include "fleet/event_heap.h"
#include "net/topology.h"
#include "util/rng.h"

namespace demuxabr {
namespace {

/// Oracle: (key, id) pairs ordered exactly like IndexedMinHeap::less.
class OracleHeap {
 public:
  void update(std::uint32_t id, double key) {
    erase(id);
    by_id_[id] = ordered_.insert({{key, id}, id});
  }
  void erase(std::uint32_t id) {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) return;
    ordered_.erase(it->second);
    by_id_.erase(it);
  }
  [[nodiscard]] bool empty() const { return ordered_.empty(); }
  [[nodiscard]] std::size_t size() const { return ordered_.size(); }
  [[nodiscard]] std::pair<double, std::uint32_t> top() const {
    return ordered_.begin()->first;
  }
  std::pair<double, std::uint32_t> pop() {
    const auto result = top();
    erase(result.second);
    return result;
  }
  [[nodiscard]] bool contains(std::uint32_t id) const {
    return by_id_.count(id) > 0;
  }
  [[nodiscard]] double key_of(std::uint32_t id) const {
    return by_id_.at(id)->first.first;
  }

 private:
  std::multimap<std::pair<double, std::uint32_t>, std::uint32_t> ordered_;
  std::map<std::uint32_t, decltype(ordered_)::iterator> by_id_;
};

TEST(IndexedMinHeap, RandomOpsMatchMultimapOracle) {
  IndexedMinHeap heap;
  OracleHeap oracle;
  Rng rng(20240807);
  constexpr std::uint32_t kIdSpace = 64;  // dense ids, frequent re-keys

  for (int op = 0; op < 20000; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.5) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIdSpace - 1));
      // Coarse keys on purpose: ties must resolve identically (by id).
      const double key = static_cast<double>(rng.uniform_int(0, 40));
      heap.update(id, key);
      oracle.update(id, key);
    } else if (dice < 0.75) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIdSpace - 1));
      heap.erase(id);
      oracle.erase(id);
    } else if (!oracle.empty()) {
      const auto expected = oracle.pop();
      const IndexedMinHeap::Entry actual = heap.pop();
      ASSERT_EQ(actual.id, expected.second) << "op " << op;
      ASSERT_EQ(actual.key, expected.first) << "op " << op;
    }

    ASSERT_EQ(heap.size(), oracle.size());
    if (!oracle.empty()) {
      ASSERT_EQ(heap.top().id, oracle.top().second) << "op " << op;
      ASSERT_EQ(heap.top().key, oracle.top().first) << "op " << op;
    }
    const auto probe = static_cast<std::uint32_t>(rng.uniform_int(0, kIdSpace - 1));
    ASSERT_EQ(heap.contains(probe), oracle.contains(probe));
    if (oracle.contains(probe)) {
      ASSERT_EQ(heap.key_of(probe), oracle.key_of(probe));
    }
  }

  // Drain: full pop order must match the oracle's sorted order.
  while (!oracle.empty()) {
    const auto expected = oracle.pop();
    const IndexedMinHeap::Entry actual = heap.pop();
    ASSERT_EQ(actual.id, expected.second);
    ASSERT_EQ(actual.key, expected.first);
  }
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, SessionsPopBeforeLinksOnTies) {
  // Link entity ids sit above all session ids, so at equal times a
  // session's own events fire before link completions surface.
  fleet::EventHeap heap(4, 1);
  Topology topo(TopologySpec::single(BandwidthTrace::constant(1000.0)));
  Channel& link = topo.path_channel(0);
  link.add_flow(0.0);
  link.register_completion(0, 5000.0);  // completes at t = 5
  heap.sync_link(0, link);
  heap.schedule_session(2, 5.0);

  ASSERT_FALSE(heap.empty());
  EXPECT_FALSE(heap.top().is_link);
  EXPECT_EQ(heap.top().index, 2u);
  heap.pop();
  ASSERT_FALSE(heap.empty());
  EXPECT_TRUE(heap.top().is_link);
  EXPECT_EQ(heap.top().index, 0u);
  EXPECT_DOUBLE_EQ(heap.top().t, 5.0);
}

TEST(EventHeap, LazyLinkSyncTracksEpoch) {
  fleet::EventHeap heap(2, 1);
  Topology topo(TopologySpec::single(BandwidthTrace::constant(1000.0)));
  Channel& link = topo.path_channel(0);
  link.add_flow(0.0);
  link.register_completion(1, 1000.0);  // t = 1 with one flow
  heap.sync_link(0, link);
  EXPECT_DOUBLE_EQ(heap.top().t, 1.0);

  // Same epoch: the re-key lands on the same time.
  heap.sync_link(0, link);
  EXPECT_DOUBLE_EQ(heap.top().t, 1.0);

  // A second flow halves the rate: epoch moves, the key is re-derived.
  link.add_flow(0.5);
  heap.sync_link(0, link);
  EXPECT_DOUBLE_EQ(heap.top().t, 1.5);  // 500 kbit left at 500 kbps

  // Unregister + remove: the link leaves the heap.
  link.unregister_completion(1);
  link.remove_flow(0.75);
  heap.sync_link(0, link);
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeapStats, PopsCountEveryPop) {
  fleet::EventHeap heap(4, 0);
  heap.schedule_session(0, 1.0);
  heap.schedule_session(1, 2.0);
  heap.schedule_session(2, 3.0);
  EXPECT_EQ(heap.stats().pops, 0u);
  heap.pop();
  heap.pop();
  EXPECT_EQ(heap.stats().pops, 2u);
  // Re-keys and erases are not pops.
  heap.schedule_session(2, 4.0);
  heap.erase_session(2);
  EXPECT_EQ(heap.stats().pops, 2u);
}

TEST(EventHeapStats, EverySyncCountsAndRekeysFromEarliestCompletion) {
  fleet::EventHeap heap(2, 1);
  Topology topo(TopologySpec::single(BandwidthTrace::constant(1000.0)));
  Channel& link = topo.path_channel(0);
  link.add_flow(0.0);
  link.register_completion(0, 1000.0);

  // 1000 kbit at the full 1000 kbps: due at t=1.
  heap.sync_link(0, link);
  EXPECT_EQ(heap.stats().sync_checks, 1u);
  ASSERT_FALSE(heap.empty());
  EXPECT_TRUE(heap.top().is_link);
  EXPECT_EQ(heap.top().index, 0u);
  EXPECT_DOUBLE_EQ(heap.top().t, 1.0);

  // A second flow at t=0.25 halves the share: the 750 kbit left take 1.5 s.
  link.add_flow(0.25);
  heap.sync_link(0, link);
  EXPECT_EQ(heap.stats().sync_checks, 2u);
  EXPECT_DOUBLE_EQ(heap.top().t, 1.75);

  // A registration moves no epoch, and the sync still re-keys: 250 kbit
  // past V(0.25) = 250 at 500 kbps.
  link.register_completion(1, 500.0);
  heap.sync_link(0, link);
  EXPECT_EQ(heap.stats().sync_checks, 3u);
  EXPECT_DOUBLE_EQ(heap.top().t, 0.75);

  // No registered completion left: the link leaves the heap.
  link.unregister_completion(0);
  link.unregister_completion(1);
  heap.sync_link(0, link);
  EXPECT_EQ(heap.stats().sync_checks, 4u);
  EXPECT_TRUE(heap.empty());
}

}  // namespace
}  // namespace demuxabr
