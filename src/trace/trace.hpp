// Trace event model (paper §IV-B).
//
// A trace is a time-ordered stream of external events fed to every system
// under test: search requests (Poisson arrivals, λ=8/s), content changes
// (10% of requests are followed by a document addition or removal), and
// churn (node joins and departures at random positions in the trace).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace asap::trace {

enum class TraceEventType : std::uint8_t {
  kQuery,      // node issues a search (terms, target doc recorded for stats)
  kAddDoc,     // node starts sharing a document
  kRemoveDoc,  // node stops sharing a document
  kJoin,       // node slot comes online (brings ContentModel::joiner_docs)
  kLeave,      // node goes offline
  kRejoin,     // a previously departed node returns: it keeps its shared
               // content and its (possibly stale) ads cache (§III-C)
};

struct TraceEvent {
  Seconds time = 0.0;
  TraceEventType type = TraceEventType::kQuery;
  NodeId node = kInvalidNode;
  /// Query target / added / removed document (unused for join/leave).
  DocId doc = kInvalidDoc;
  /// Query search terms (kQuery only).
  std::array<KeywordId, 3> terms{};
  std::uint8_t num_terms = 0;

  std::span<const KeywordId> term_span() const {
    return {terms.data(), num_terms};
  }
};

/// Summary of a generated trace. The events themselves are never stored:
/// runs re-synthesize them on demand (trace/streaming_trace_gen.hpp).
struct Trace {
  /// Always empty. Kept only because perfbench/probes.cpp still names it
  /// in a branch that no world takes.
  std::vector<TraceEvent> events;
  Seconds horizon = 0.0;  // time of the last event
  std::uint32_t num_queries = 0;
  std::uint32_t num_changes = 0;
  std::uint32_t num_joins = 0;
  std::uint32_t num_leaves = 0;
  std::uint32_t num_rejoins = 0;
};

struct TraceParams {
  std::uint32_t num_queries = 6'000;
  /// Fraction of queries followed by a content change (§IV-B step 4).
  double content_change_fraction = 0.10;
  std::uint32_t joins = 200;
  std::uint32_t leaves = 200;
  /// Fraction of departures that later rejoin (same node, same content,
  /// stale ads cache — the scenario §III-C's ads-request flow exists for).
  double rejoin_fraction = 0.5;
  /// Mean offline duration before a rejoin, seconds (exponential).
  Seconds mean_offline = 120.0;
  /// Poisson arrival rate of search requests, per second (§IV-B step 5).
  double arrival_rate = 8.0;
  /// Queries use 1..max_query_terms terms from the target document.
  std::uint32_t max_query_terms = 3;
  /// Probability that a multi-term query is forced to include one of the
  /// document's unique (title) terms, making it selective.
  double unique_term_bias = 0.7;

  static TraceParams small() { return TraceParams{}; }
  static TraceParams paper() {
    TraceParams p;
    p.num_queries = 30'000;
    p.joins = 1'000;
    p.leaves = 1'000;
    return p;
  }
};

}  // namespace asap::trace
