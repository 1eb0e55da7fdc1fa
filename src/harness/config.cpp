#include "harness/config.hpp"

#include <algorithm>

namespace asap::harness {

const char* topology_name(TopologyKind t) {
  switch (t) {
    case TopologyKind::kRandom:
      return "random";
    case TopologyKind::kPowerlaw:
      return "powerlaw";
    case TopologyKind::kCrawled:
      return "crawled";
  }
  return "?";
}

std::optional<TopologyKind> topology_from_name(std::string_view name) {
  for (const auto t : {TopologyKind::kRandom, TopologyKind::kPowerlaw,
                       TopologyKind::kCrawled}) {
    if (name == topology_name(t)) return t;
  }
  return std::nullopt;
}

const char* preset_name(Preset p) {
  return p == Preset::kPaper ? "paper" : "small";
}

std::optional<Preset> preset_from_name(std::string_view name) {
  if (name == "small") return Preset::kSmall;
  if (name == "paper") return Preset::kPaper;
  return std::nullopt;
}

void ExperimentConfig::apply_scale(std::uint32_t n) {
  if (n == 0) return;  // keep the preset dimensions
  scale = n;

  content.initial_nodes = n;
  content.joiner_nodes = std::max<std::uint32_t>(100, n / 10);

  // Churn stays a bounded absolute count: attach/reattach keep the legacy
  // O(n) candidate scan per event (digest compatibility), so churn volume
  // — not population — must bound that cost at scale.
  trace.joins = std::min<std::uint32_t>(trace.joins, 2'000);
  trace.joins = std::min(trace.joins, content.joiner_nodes);
  trace.leaves = std::min<std::uint32_t>(trace.leaves, 2'000);

  // Keep popular-term selectivity roughly scale-invariant: a fixed 800-term
  // pool shared by a million peers would make every popular term a huge
  // result set. Past the ZipfDraw CDF threshold this also engages the O(1)
  // rejection-inversion sampler.
  content.popular_terms_per_class =
      std::max(content.popular_terms_per_class, n / 50);

  // Physical network: enough stub capacity for every slot (initial nodes
  // plus joiners) while transit dimensions stay fixed.
  const std::uint32_t slots = content.initial_nodes + content.joiner_nodes;
  phys.stub_nodes_per_domain = 20;
  const std::uint32_t transits = phys.total_transit_nodes();
  const std::uint32_t per_domain = phys.stub_nodes_per_domain;
  phys.stub_domains_per_transit =
      (slots + transits * per_domain - 1) / (transits * per_domain);
}

ExperimentConfig ExperimentConfig::make(Preset preset, TopologyKind topology,
                                        std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.preset = preset;
  cfg.topology = topology;
  cfg.seed = seed;
  if (preset == Preset::kPaper) {
    cfg.phys = net::TransitStubParams::paper();
    cfg.content = trace::ContentModelParams::paper();
    cfg.trace = trace::TraceParams::paper();
    cfg.warmup = 480.0;
  } else {
    cfg.phys = net::TransitStubParams::small();
    cfg.content = trace::ContentModelParams::small();
    cfg.trace = trace::TraceParams::small();
    // Warm-up must outlast the longest ad walk (budget/walkers hops at
    // ~0.12 s per hop; GSA walks run budget/degree hops) so warm-up
    // traffic does not bleed into the measurement window.
    cfg.warmup = 480.0;
  }
  return cfg;
}

}  // namespace asap::harness
