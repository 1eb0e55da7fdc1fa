// Test helper: drains a build-mode StreamingTraceGenerator into a vector so
// a test can walk the whole stream, and read its totals, more than once.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "trace/content_model.hpp"
#include "trace/streaming_trace_gen.hpp"

namespace asap::trace {

struct DrainedTrace {
  std::vector<TraceEvent> events;
  Seconds horizon = 0.0;  // time of the last event
  std::uint32_t num_queries = 0;
  std::uint32_t num_changes = 0;
  std::uint32_t num_joins = 0;
  std::uint32_t num_leaves = 0;
  std::uint32_t num_rejoins = 0;
};

/// Runs the stream to exhaustion (mid-trace mints land in `model`).
inline DrainedTrace drain(ContentModel& model, const TraceParams& params,
                          const Rng& rng) {
  StreamingTraceGenerator gen(model, params, rng);
  DrainedTrace out;
  TraceEvent ev;
  while (gen.next(ev)) out.events.push_back(ev);
  out.horizon = gen.last_event_time();
  out.num_queries = gen.num_queries();
  out.num_changes = gen.num_changes();
  out.num_joins = gen.num_joins();
  out.num_leaves = gen.num_leaves();
  out.num_rejoins = gen.num_rejoins();
  return out;
}

}  // namespace asap::trace
