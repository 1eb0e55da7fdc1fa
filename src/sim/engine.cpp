#include "sim/engine.hpp"

#include <cmath>

namespace asap::sim {

Engine::Engine(const EngineTuning& tuning) : tuning_(tuning) {
  queue_.set_thresholds(tuning_.ladder_threshold, tuning_.heap_threshold);
}

void Engine::schedule_impl(Seconds t, EventCallback cb) {
  ASAP_REQUIRE(std::isfinite(t), "event time must be finite");
  ASAP_REQUIRE(t >= now_, "cannot schedule an event in the past");
  queue_.push(Item{t, next_seq_++, std::move(cb)});
}

bool Engine::step() {
  if (queue_.empty()) return false;
  Item item = queue_.pop_front();
  // Warm the next event's out-of-line closure (if any) while this one
  // executes; purely a cache hint, so ordering and digests are untouched.
  if (const Item* next = queue_.front()) next->cb.prefetch();

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
  for (;;) {
    const Item* front = queue_.front();
    if (front == nullptr || front->time > t_end) break;
    step();
  }
  if (now_ < t_end) now_ = t_end;
}

void Engine::run() {
  while (step()) {
  }
}

}  // namespace asap::sim
