// World construction: physical network, overlay, content model, trace.
//
// A World is immutable during replay and shared across all systems under
// test, so every algorithm faces the identical workload: the same peers,
// the same content placement, the same queries at the same times, the same
// churn. Per-run mutable state (overlay churn, live content, liveness,
// ledgers) is created by the replayer from the World.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "harness/config.hpp"
#include "net/transit_stub.hpp"
#include "overlay/overlay.hpp"
#include "trace/content_model.hpp"
#include "trace/trace.hpp"

namespace asap::harness {

/// Everything a run needs to re-synthesize the trace event stream on
/// demand: the trace-stream RNG's initial state, the corpus position where
/// mid-trace mints begin, and the churn bitmap the fault planner needs.
/// World::trace keeps only the counters and horizon.
struct StreamingTraceInfo {
  /// Always true. Kept only because perfbench/probes.cpp still reads it.
  bool enabled = true;
  Rng rng{0};
  DocId mint_base = 0;
  /// churned[n] != 0 iff the trace joins/leaves/rejoins initial node n.
  std::vector<std::uint8_t> churned;
};

struct World {
  ExperimentConfig cfg;
  net::TransitStubNetwork phys;
  overlay::Overlay base_overlay;          // initial nodes only
  std::vector<PhysNodeId> node_phys;      // one entry per node slot
  trace::ContentModel model;              // includes mid-trace documents
  trace::Trace trace;
  StreamingTraceInfo streaming;
};

/// Builds the full world deterministically from cfg.seed.
World build_world(const ExperimentConfig& cfg);

}  // namespace asap::harness
