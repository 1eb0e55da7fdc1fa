// Synthetic query-trace generator (paper §IV-B steps 4-6).
//
// Produces a time-stamped event stream, one event per next() call, with:
//   * `num_queries` search requests at Poisson(λ) arrival times, each
//     guaranteed to have at least one live matching document at issue time
//     (§V-A: "all the search requests are created such that there is at
//     least one matching document existing in the system"),
//   * a content change (add/remove) right after `content_change_fraction`
//     of the queries,
//   * `joins` node-join and `leaves` node-departure events at uniformly
//     random trace positions, and rejoins of a fraction of the leavers,
//   * requesters only ask for documents in classes they are interested in
//     ("a peer only asks for interesting documents").
//
// The generator tracks live state internally, so the trace is consistent
// by construction, and never holds an O(events) vector. Resident state is
// O(live nodes + documents): the live-content mirror, the per-class
// instance pools, the online pool and the churn schedule.
//
// The RNG discipline that makes lazy arrival times possible: the stream is
// defined as every query-arrival exponential first, then the churn
// uniforms, then the per-event walk draws. The ctor drains the arrival
// exponentials from the main stream (keeping only the horizon), having
// first saved a pre-drain RNG copy from which each arrival time is
// re-derived on demand, then draws the O(joins + leaves) churn schedule.
// Walk draws continue from the main stream.
//
// Two modes:
//   * build mode mutates the ContentModel — mid-trace document additions
//     mint brand-new documents;
//   * replay mode re-runs a previously built stream against a *const*
//     model whose corpus already holds those mints, appended in stream
//     order starting at `mint_base`. Each replayed mint consumes the same
//     RNG draws (ContentModel::replay_mint_draws) and resolves to the next
//     sequential pre-minted id, keeping the event stream bit-identical
//     while many replay runs share one immutable model.
//
// harness::build_world runs build mode once; every run replays.
#pragma once

#include <array>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "trace/content_model.hpp"
#include "trace/live_content.hpp"
#include "trace/trace.hpp"

namespace asap::trace {

class StreamingTraceGenerator {
 public:
  /// Build mode: mid-trace additions mint documents into `model`.
  StreamingTraceGenerator(ContentModel& model, const TraceParams& params,
                          const Rng& rng);

  /// Replay mode: `model` stays const; mints resolve to the pre-minted ids
  /// `mint_base`, `mint_base + 1`, ... already present in its corpus.
  StreamingTraceGenerator(const ContentModel& model, const TraceParams& params,
                          const Rng& rng, DocId mint_base);

  /// Produces the next event; false once the stream is exhausted.
  bool next(TraceEvent& out);

  /// The walk RNG (the stream's final state once exhausted).
  const Rng& rng_state() const { return rng_; }

  /// Time of the most recent event (the trace horizon once the stream is
  /// exhausted; 0.0 before the first event).
  Seconds last_event_time() const { return last_event_time_; }

  // Event counters so far.
  std::uint32_t num_queries() const { return queries_; }
  std::uint32_t num_changes() const { return changes_; }
  std::uint32_t num_joins() const { return joins_; }
  std::uint32_t num_leaves() const { return leaves_; }
  std::uint32_t num_rejoins() const { return rejoins_; }

  /// Heap bytes of resident generator state (instrumentation; excludes the
  /// shared ContentModel).
  std::uint64_t memory_bytes() const;

 private:
  struct Instance {
    NodeId node;
    DocId doc;
  };
  struct Churn {
    Seconds time;
    bool join;
  };
  struct PendingRejoin {
    Seconds time;
    NodeId node;
    bool operator>(const PendingRejoin& o) const { return time > o.time; }
  };

  StreamingTraceGenerator(const ContentModel& model,
                          ContentModel* mutable_model,
                          const TraceParams& params, const Rng& rng,
                          DocId mint_base);

  /// Runs one arrival step (churn + rejoins + query + optional content
  /// change), buffering the events it produces.
  void step();

  void emit(TraceEvent ev);
  bool pick_target(NodeId requester, Instance& out);
  void pick_terms(const Document& doc, TraceEvent& ev);
  NodeId pick_online_node();
  void make_content_change(Seconds time);
  void flush_rejoins(Seconds upto);
  DocId mint(TopicId cls);

  const ContentModel& model_;
  ContentModel* mutable_model_;  // null in replay mode
  TraceParams params_;
  Rng rng_;     // main stream: walk draws (post-drain)
  Rng qt_rng_;  // pre-drain copy: re-derives arrival times on demand
  Seconds qt_clock_ = 0.0;
  DocId next_mint_;

  std::vector<Churn> churn_;
  std::size_t churn_idx_ = 0;
  std::uint32_t next_query_ = 0;

  std::priority_queue<PendingRejoin, std::vector<PendingRejoin>,
                      std::greater<>>
      pending_rejoins_;

  LiveContent live_;
  /// Per-class (node, doc) instance lists with lazy invalidation.
  std::array<std::vector<Instance>, kNumClasses> class_instances_;
  std::vector<NodeId> online_pool_;  // lazily compacted
  std::uint32_t next_joiner_ = 0;

  /// Events produced by the current step(), drained by next().
  std::vector<TraceEvent> buffer_;
  std::size_t buffer_head_ = 0;

  Seconds last_event_time_ = 0.0;
  std::uint32_t queries_ = 0;
  std::uint32_t changes_ = 0;
  std::uint32_t joins_ = 0;
  std::uint32_t leaves_ = 0;
  std::uint32_t rejoins_ = 0;
};

}  // namespace asap::trace
