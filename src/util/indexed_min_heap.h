// Indexed d-ary min-heap (kArity below) over dense integer ids with
// deterministic (key, id) ordering. The index makes decrease-key/erase
// O(log n) by id — the primitive under both the fleet event heap (entries
// keyed by wall-clock event time) and each Channel's completion registry
// (entries keyed by virtual-service targets, which never change when the
// flow population or capacity does).
//
// The arity and the hole-based sifts are pure layout/performance choices:
// the heap's observable behaviour — pop order, key_of, contains — is the
// total (key, id) order, identical for any internal arrangement, so
// engines built on this heap produce byte-identical results regardless.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace demuxabr {

/// One heap slot: dense integer id + ordering key.
struct HeapEntry {
  std::uint32_t id = 0;
  double key = 0.0;
};

class IndexedMinHeap {
 public:
  using Entry = HeapEntry;

  /// Insert `id` with `key`, or re-key it if already present (moves up or
  /// down as needed). Ids should be dense: the position index grows to the
  /// largest id ever seen.
  void update(std::uint32_t id, double key) {
    ensure_slot(id);
    const std::int32_t at = pos_[id];
    if (at < 0) {
      pos_[id] = static_cast<std::int32_t>(heap_.size());
      heap_.push_back({id, key});
      sift_up(heap_.size() - 1);
    } else {
      const auto i = static_cast<std::size_t>(at);
      heap_[i].key = key;
      if (!sift_up(i)) sift_down(i);
    }
  }

  /// Remove `id` if present; no-op otherwise.
  void erase(std::uint32_t id) {
    if (id >= pos_.size() || pos_[id] < 0) return;
    const auto i = static_cast<std::size_t>(pos_[id]);
    pos_[id] = -1;
    const std::size_t last = heap_.size() - 1;
    if (i != last) {
      heap_[i] = heap_[last];
      pos_[heap_[i].id] = static_cast<std::int32_t>(i);
      heap_.pop_back();
      if (!sift_up(i)) sift_down(i);
    } else {
      heap_.pop_back();
    }
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  [[nodiscard]] const Entry& top() const {
    assert(!heap_.empty());
    return heap_.front();
  }

  Entry pop() {
    assert(!heap_.empty());
    const Entry result = heap_.front();
    erase(result.id);
    return result;
  }

  [[nodiscard]] bool contains(std::uint32_t id) const {
    return id < pos_.size() && pos_[id] >= 0;
  }

  [[nodiscard]] double key_of(std::uint32_t id) const {
    assert(contains(id));
    return heap_[static_cast<std::size_t>(pos_[id])].key;
  }

  void clear() {
    heap_.clear();
    pos_.assign(pos_.size(), -1);
  }

  void reserve(std::size_t n) {
    heap_.reserve(n);
    pos_.reserve(n);
  }

 private:
  /// Strict-weak order: key, then id. The id tiebreak makes pop order (and
  /// therefore every engine built on this heap) deterministic when several
  /// entries share a key.
  [[nodiscard]] static bool less(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }

  void ensure_slot(std::uint32_t id) {
    if (id >= pos_.size()) pos_.resize(static_cast<std::size_t>(id) + 1, -1);
  }

  /// Branching factor. 2 measured best on the drain-loop mix (the decrease-
  /// key-heavy registry favours the shallower sift_down comparisons of a
  /// binary layout over 4-ary's cache density); any value preserves
  /// observable behaviour.
  static constexpr std::size_t kArity = 2;

  /// Hole-based sift: the displaced entry is held aside while ancestors
  /// shift down, so each level costs one entry move + one index write
  /// instead of a three-write swap. Returns true when the entry moved.
  bool sift_up(std::size_t i) {
    const Entry entry = heap_[i];
    bool moved = false;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!less(entry, heap_[parent])) break;
      heap_[i] = heap_[parent];
      pos_[heap_[i].id] = static_cast<std::int32_t>(i);
      i = parent;
      moved = true;
    }
    if (moved) {
      heap_[i] = entry;
      pos_[entry.id] = static_cast<std::int32_t>(i);
    }
    return moved;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    const Entry entry = heap_[i];
    bool moved = false;
    while (true) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      std::size_t smallest = first;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (less(heap_[c], heap_[smallest])) smallest = c;
      }
      if (!less(heap_[smallest], entry)) break;
      heap_[i] = heap_[smallest];
      pos_[heap_[i].id] = static_cast<std::int32_t>(i);
      i = smallest;
      moved = true;
    }
    if (moved) {
      heap_[i] = entry;
      pos_[entry.id] = static_cast<std::int32_t>(i);
    }
  }

  std::vector<Entry> heap_;
  /// id -> heap index, -1 when absent
  std::vector<std::int32_t> pos_;
};

}  // namespace demuxabr
