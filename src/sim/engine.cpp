#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

namespace asap::sim {

namespace {
/// Heap fan-out: shallower than a binary heap, so fewer levels per sift.
constexpr std::size_t kArity = 4;
}  // namespace

void Engine::schedule_at(Seconds t, Callback f) {
  ASAP_REQUIRE(std::isfinite(t), "event time must be finite");
  ASAP_REQUIRE(t >= now_, "cannot schedule an event in the past");
  heap_.push_back(Item{t, next_seq_++, std::move(f)});
  sift_up(heap_.size() - 1);
}

bool Engine::step() {
  if (heap_.empty()) return false;
  Item item = std::move(heap_.front());
  heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);

  ASAP_DCHECK(item.time >= now_);
  digest_.absorb(item.time);
  digest_.absorb(item.seq);
  ASAP_AUDIT_HOOK(auditor_, on_event(item.time));
  ASAP_OBS_HOOK(observer_, on_engine_event(item.time));
  now_ = item.time;
  ++executed_;
  item.cb();
  return true;
}

void Engine::run_until(Seconds t_end) {
  while (!heap_.empty() && heap_.front().time <= t_end) step();
  if (now_ < t_end) now_ = t_end;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::sift_up(std::size_t i) {
  Item item = std::move(heap_[i]);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!item.before(heap_[parent])) break;
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(item);
}

void Engine::sift_down(std::size_t i) {
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

}  // namespace asap::sim
