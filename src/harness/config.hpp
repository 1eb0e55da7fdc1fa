// Experiment configuration presets (paper §IV-A/B).
//
// Two presets:
//   * kSmall — ~5.2k physical nodes, 2,000 peers, 6,000 queries. Budgets
//     scale with the population so relative reach matches the paper-scale
//     setup. This is the default for benches on a laptop-class machine.
//   * kPaper — the paper's exact framework: 51,984 physical nodes, 10,000
//     peers, 30,000 queries, TTL 6 floods, 5x1024 walks, GSA budget 8,000,
//     ad budget unit M0 = 3,000, 1,000 joins + 1,000 leaves.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "faults/fault_config.hpp"
#include "net/transit_stub.hpp"
#include "sim/size_model.hpp"
#include "trace/content_model.hpp"
#include "trace/trace.hpp"

namespace asap::harness {

enum class Preset : std::uint8_t { kSmall, kPaper };

enum class TopologyKind : std::uint8_t { kRandom, kPowerlaw, kCrawled };

const char* topology_name(TopologyKind t);
/// Inverse of topology_name(); nullopt for unknown names.
std::optional<TopologyKind> topology_from_name(std::string_view name);

const char* preset_name(Preset p);
/// Inverse of preset_name(); nullopt for unknown names.
std::optional<Preset> preset_from_name(std::string_view name);

struct ExperimentConfig {
  Preset preset = Preset::kSmall;
  TopologyKind topology = TopologyKind::kCrawled;
  std::uint64_t seed = 42;

  net::TransitStubParams phys;
  trace::ContentModelParams content;
  trace::TraceParams trace;
  sim::SizeModel sizes;

  // Overlay shape (paper §IV-A).
  double random_avg_degree = 5.0;
  double powerlaw_avg_degree = 5.0;
  double powerlaw_alpha = 0.74;  // paper: alpha = -0.74
  double crawled_avg_degree = 3.35;
  std::uint32_t join_degree = 4;  // edges a joining node establishes

  /// Ads are disseminated for this long before the trace starts; the
  /// measurement window begins at `warmup`.
  Seconds warmup = 60.0;

  /// Fault-injection configuration (faults/fault_config.hpp). All-zero by
  /// default: no injector is built and runs stay bit-identical to the
  /// committed goldens. RunOptions::faults overrides this per run.
  faults::FaultConfig faults;

  /// Node-count override applied by apply_scale (0 = preset default).
  /// Recorded so result JSON and matrix specs can round-trip the axis.
  std::uint32_t scale = 0;

  /// Re-dimensions this config for an `n`-node population (the --scale
  /// axis): initial nodes, joiner slots, physical network capacity, capped
  /// churn counts, and a keyword-pool size that keeps term selectivity
  /// comparable across scales. Leaves every other knob (budgets, rates,
  /// warm-up) at its preset value so small-scale behaviour is unchanged.
  void apply_scale(std::uint32_t n);

  static ExperimentConfig make(Preset preset, TopologyKind topology,
                               std::uint64_t seed = 42);
};

}  // namespace asap::harness
