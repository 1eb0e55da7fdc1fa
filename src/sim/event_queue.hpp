// The engine's pending-event structure (DESIGN.md §12).
//
// A hand-rolled 4-ary heap — shallower than a binary heap, so fewer cache
// lines touched per push/pop — below `ladder_threshold` pending items,
// the exact-order ladder queue (ladder_queue.hpp) above it, with a
// hysteresis gap (`heap_threshold`) so the boundary cannot thrash. Both
// structures pop in exactly the total (time, seq) order, so which one
// executes an event never shows in a run digest.
//
// Not thread-safe: owned by the engine's single executing thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/ladder_queue.hpp"

namespace asap::sim {

/// Item must expose `Seconds time`, `std::uint64_t seq`, a
/// `before(const Item&)` strict order over (time, seq), and be movable
/// (the same contract LadderQueue requires).
template <typename Item>
class EventQueue {
 public:
  /// Heap → ladder above `ladder_threshold` pending; ladder → heap below
  /// `heap_threshold` (EngineTuning semantics, same defaults).
  void set_thresholds(std::size_t ladder_threshold,
                      std::size_t heap_threshold) {
    ladder_threshold_ = ladder_threshold;
    heap_threshold_ = heap_threshold;
  }

  bool empty() const { return size() == 0; }
  std::size_t size() const {
    return use_ladder_ ? ladder_.size() : heap_.size();
  }

  /// True while the ladder queue is the active structure (diagnostics).
  bool using_ladder() const { return use_ladder_; }
  const LadderQueue<Item>& ladder() const { return ladder_; }

  void push(Item&& item) {
    if (use_ladder_) {
      ladder_.push(std::move(item));
      return;
    }
    heap_.push_back(std::move(item));
    sift_up(heap_.size() - 1);
    if (heap_.size() > ladder_threshold_) migrate_to_ladder();
  }

  /// Earliest pending item, readied for execution; nullptr when empty.
  /// The pointer is valid until the next mutation.
  const Item* front() {
    if (use_ladder_) return ladder_.peek();
    return heap_.empty() ? nullptr : &heap_.front();
  }

  /// Removes and returns the earliest item. Requires !empty().
  Item pop_front() {
    if (use_ladder_) {
      Item item = ladder_.pop();
      if (ladder_.size() < heap_threshold_) migrate_to_heap();
      return item;
    }
    Item item = std::move(heap_.front());
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return item;
  }

 private:
  static constexpr std::size_t kArity = 4;

  void migrate_to_ladder() {
    ladder_.assign_unordered(std::move(heap_));
    heap_.clear();
    use_ladder_ = true;
  }

  void migrate_to_heap() {
    heap_ = ladder_.drain_unordered();
    use_ladder_ = false;
    const std::size_t n = heap_.size();
    if (n < 2) return;
    // Floyd heapify: sift down every internal node, last parent first.
    for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }

  void sift_up(std::size_t i) {
    Item item = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!item.before(heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(item);
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    Item item = std::move(heap_[i]);
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + kArity, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (heap_[c].before(heap_[best])) best = c;
      }
      if (!heap_[best].before(item)) break;
      heap_[i] = std::move(heap_[best]);
      i = best;
    }
    heap_[i] = std::move(item);
  }

  std::size_t ladder_threshold_ = 4096;
  std::size_t heap_threshold_ = 512;
  std::vector<Item> heap_;
  LadderQueue<Item> ladder_;
  bool use_ladder_ = false;
};

}  // namespace asap::sim
