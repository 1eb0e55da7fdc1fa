#include "harness/world.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trace/streaming_trace_gen.hpp"

namespace asap::harness {

namespace {

overlay::Overlay build_overlay(const ExperimentConfig& cfg,
                               std::uint32_t nodes, Rng& rng) {
  switch (cfg.topology) {
    case TopologyKind::kRandom:
      return overlay::Overlay::random(nodes, cfg.random_avg_degree, rng);
    case TopologyKind::kPowerlaw:
      return overlay::Overlay::powerlaw(nodes, cfg.powerlaw_avg_degree,
                                        cfg.powerlaw_alpha, rng);
    case TopologyKind::kCrawled:
      return overlay::Overlay::crawled_like(nodes, cfg.crawled_avg_degree,
                                            rng);
  }
  throw ConfigError("unknown topology kind");
}

}  // namespace

World build_world(const ExperimentConfig& cfg) {
  // Independent generator streams so a change in one stage (say, overlay
  // construction) does not perturb the others.
  Rng master(cfg.seed);
  Rng phys_rng = master.fork();
  Rng overlay_rng = master.fork();
  Rng content_rng = master.fork();
  Rng trace_rng = master.fork();
  Rng placement_rng = master.fork();

  auto phys = net::TransitStubNetwork::generate(cfg.phys, phys_rng);

  auto model = trace::ContentModel::build(cfg.content, content_rng);
  const std::uint32_t slots = model.total_node_slots();
  ASAP_REQUIRE(slots <= phys.num_nodes(),
               "more P2P peers than physical nodes");

  auto overlay =
      build_overlay(cfg, model.params().initial_nodes, overlay_rng);

  // Map every node slot (initial + joiners) to a distinct physical node.
  std::vector<PhysNodeId> node_phys;
  {
    auto picks = placement_rng.sample_indices(phys.num_nodes(), slots);
    node_phys.assign(picks.begin(), picks.end());
  }

  // Build pass: run the stream once in build mode so the model gains its
  // mid-trace mints, recording only what a run needs to re-derive the
  // identical stream — the pre-stream RNG state, the corpus position where
  // mints begin, and the churn bitmap the fault planner wants. The events
  // themselves are discarded; runs re-synthesize them on demand.
  StreamingTraceInfo streaming;
  streaming.rng = trace_rng;
  streaming.mint_base = static_cast<DocId>(model.num_docs());
  streaming.churned.assign(model.params().initial_nodes, 0);
  trace::StreamingTraceGenerator gen(model, cfg.trace, trace_rng);
  trace::TraceEvent ev;
  while (gen.next(ev)) {
    if ((ev.type == trace::TraceEventType::kJoin ||
         ev.type == trace::TraceEventType::kLeave ||
         ev.type == trace::TraceEventType::kRejoin) &&
        ev.node < model.params().initial_nodes) {
      streaming.churned[ev.node] = 1;
    }
  }
  trace::Trace tr;
  tr.num_queries = gen.num_queries();
  tr.num_changes = gen.num_changes();
  tr.num_joins = gen.num_joins();
  tr.num_leaves = gen.num_leaves();
  tr.num_rejoins = gen.num_rejoins();
  tr.horizon = gen.last_event_time();

  return World{cfg,
               std::move(phys),
               std::move(overlay),
               std::move(node_phys),
               std::move(model),
               std::move(tr),
               std::move(streaming)};
}

}  // namespace asap::harness
