// Discrete-event simulation engine.
//
// The simulator uses a hybrid event model (DESIGN.md §3): protocol-level
// "macro" events (trace events, confirmation round trips, refresh timers)
// go through this queue, while per-hop message propagation is expanded
// inline by the propagation kernels and accounted directly in the
// BandwidthLedger. Ordering is the total order (time, seq) with a
// monotonically increasing sequence number as tie-breaker, which makes
// event ordering (and therefore every simulation) fully deterministic.
//
// The pending set is one 4-ary min-heap of std::function callbacks: a
// run holds at most a few thousand macro events, so the queue is a small
// share of any run's time (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "sim/audit.hpp"
#include "sim/observe.hpp"

namespace asap::sim {

class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time in seconds (inside a callback: the executing
  /// event's time).
  Seconds now() const { return now_; }

  /// Schedule `f` at absolute time `t` (must be finite and not in the
  /// past).
  void schedule_at(Seconds t, Callback f);

  /// Same as schedule_at(t, f); the owner node is ignored. It exists only
  /// for the benchmark's engine probe (perfbench/probes.cpp), which still
  /// passes one; new code uses the owner-less form.
  void schedule_at(Seconds t, NodeId /*owner*/, Callback f) {
    schedule_at(t, std::move(f));
  }

  /// Schedule `f` `dt` seconds from now (dt >= 0).
  void schedule_in(Seconds dt, Callback f) {
    schedule_at(now_ + dt, std::move(f));
  }

  /// Pop and execute the earliest event. Returns false if none remain.
  bool step();

  /// Run until the queue drains or virtual time would exceed `t_end`
  /// (events after t_end stay queued).
  void run_until(Seconds t_end);

  /// Run until the queue drains completely.
  void run();

  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }

  /// FNV-1a over every executed event's (time, seq); always maintained, so
  /// two identically-seeded runs can be compared bit-for-bit.
  std::uint64_t digest() const { return digest_.value(); }

  /// Installs an invariant auditor (nullptr disables). Not owned.
  void set_auditor(SimAuditor* auditor) { auditor_ = auditor; }

  /// Installs a passive observer (nullptr disables). Not owned. Observers
  /// see every executed event but must never feed back into the run
  /// (sim/observe.hpp); the digest is identical either way.
  void set_observer(Observer* observer) { observer_ = observer; }

 private:
  struct Item {
    Seconds time;
    std::uint64_t seq;  ///< schedule counter: the (time, seq) tie-breaker
    Callback cb;

    bool before(const Item& other) const {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Item> heap_;  ///< 4-ary min-heap on (time, seq)
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  Fnv64 digest_;
  SimAuditor* auditor_ = nullptr;
  Observer* observer_ = nullptr;
};

}  // namespace asap::sim
