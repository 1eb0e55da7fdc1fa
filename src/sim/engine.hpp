// Discrete-event simulation engine.
//
// The simulator uses a hybrid event model (DESIGN.md §3): protocol-level
// "macro" events (trace events, confirmation round trips, refresh timers)
// go through this queue, while per-hop message propagation is expanded
// inline by the propagation kernels and accounted directly in the
// BandwidthLedger. Ordering is the total order (time, seq) with a
// monotonically increasing sequence number as tie-breaker, which makes
// event ordering (and therefore every simulation) fully deterministic.
// The pending set is one heap/ladder hybrid (event_queue.hpp, §12).
//
// Callbacks are small-buffer EventCallbacks (event_callback.hpp) drawing
// oversized closures from the engine's SlabPool instead of
// std::function's per-event heap allocation.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/types.hpp"
#include "sim/audit.hpp"
#include "sim/event_callback.hpp"
#include "sim/event_queue.hpp"
#include "sim/observe.hpp"
#include "sim/slab_pool.hpp"

namespace asap::sim {

/// Knobs for the engine's pending-event structures. Defaults are the
/// production configuration; tests pin specific paths (forced heap,
/// forced ladder, forced pool-backed callbacks) to prove digest identity
/// across all of them.
struct EngineTuning {
  /// Heap → ladder once pending events exceed this. ~0 keeps the heap
  /// forever; 0 moves to the ladder on the first event.
  std::size_t ladder_threshold = 4096;
  /// Ladder → heap once pending events fall below this (hysteresis gap
  /// below ladder_threshold prevents migration thrash at the boundary).
  std::size_t heap_threshold = 512;
  /// Test hook: pad every closure past EventCallback::kInlineSize so the
  /// SlabPool fallback path runs for all events.
  bool force_heap_callbacks = false;
};

class Engine {
 public:
  Engine() : Engine(EngineTuning{}) {}
  explicit Engine(const EngineTuning& tuning);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time in seconds (inside a callback: the executing
  /// event's time).
  Seconds now() const { return now_; }

  /// Schedule `f` at absolute time `t` (must be finite and not in the
  /// past). Accepts any void() callable; captures up to
  /// EventCallback::kInlineSize bytes are stored allocation-free.
  template <typename F>
  void schedule_at(Seconds t, F&& f) {
    if (tuning_.force_heap_callbacks) {
      schedule_impl(t, EventCallback(pool_, Padded<std::decay_t<F>>(
                                                std::forward<F>(f))));
    } else {
      schedule_impl(t, EventCallback(pool_, std::forward<F>(f)));
    }
  }

  /// Same as schedule_at(t, f); the owner node is ignored. It exists only
  /// for the benchmark's engine probe (perfbench/probes.cpp), which still
  /// passes one; new code uses the owner-less form.
  template <typename F>
  void schedule_at(Seconds t, NodeId /*owner*/, F&& f) {
    schedule_at(t, std::forward<F>(f));
  }

  /// Schedule `f` `dt` seconds from now (dt >= 0).
  template <typename F>
  void schedule_in(Seconds dt, F&& f) {
    schedule_at(now_ + dt, std::forward<F>(f));
  }

  /// Pop and execute the earliest event. Returns false if none remain.
  bool step();

  /// Run until the queue drains or virtual time would exceed `t_end`
  /// (events after t_end stay queued).
  void run_until(Seconds t_end);

  /// Run until the queue drains completely.
  void run();

  std::size_t pending() const { return queue_.size(); }
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

  /// True while the ladder queue is the active structure (diagnostics).
  bool using_ladder() const { return queue_.using_ladder(); }

 private:
  struct Item {
    Seconds time;
    std::uint64_t seq;  ///< schedule counter: the (time, seq) tie-breaker
    EventCallback cb;

    bool before(const Item& other) const {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }

    /// Cache hint picked up by the ladder's bottom batching.
    void prefetch() const { cb.prefetch_far(); }
  };
  static_assert(sizeof(Item) == 64,
                "queue Item should be exactly one cache line");

  /// force_heap_callbacks wrapper: same behavior, guaranteed pool storage.
  template <typename Fn>
  struct Padded {
    explicit Padded(Fn f) : fn(std::move(f)) {}
    void operator()() { fn(); }
    Fn fn;
    unsigned char pad[EventCallback::kInlineSize + 1] = {};
  };

  void schedule_impl(Seconds t, EventCallback cb);

  SlabPool pool_;  // first member: must outlive every queued EventCallback
  EngineTuning tuning_;
  EventQueue<Item> queue_;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  Fnv64 digest_;
  SimAuditor* auditor_ = nullptr;
  Observer* observer_ = nullptr;
};

}  // namespace asap::sim
