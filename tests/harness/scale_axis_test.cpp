// The --scale axis (DESIGN.md §15): apply_scale() re-dimensioning rules,
// spec round-trip of the scale key through results.json (including absent-
// key defaults for pre-scale documents), and the load-bearing digest
// identity — runs replaying the on-demand trace stream digest exactly as
// the same matrix did on materialized traces (pins recorded before the
// materialized path was deleted), with faults armed and off.
#include <gtest/gtest.h>

#include <cmath>

#include "common/json.hpp"
#include "faults/fault_config.hpp"
#include "harness/config.hpp"
#include "harness/matrix_runner.hpp"
#include "harness/world.hpp"

namespace asap::harness {
namespace {

void shrink(ExperimentConfig& cfg) {
  cfg.content.initial_nodes = 300;
  cfg.content.joiner_nodes = 20;
  cfg.trace.num_queries = 200;
  cfg.trace.joins = 10;
  cfg.trace.leaves = 10;
  cfg.warmup = 120.0;
}

MatrixSpec tiny_spec() {
  MatrixSpec spec;
  spec.preset = Preset::kSmall;
  spec.topologies = {TopologyKind::kCrawled};
  spec.algos = {AlgoKind::kFlooding, AlgoKind::kRandomWalk, AlgoKind::kAsapRw};
  spec.seed = 7;
  spec.trials = 1;
  spec.tweak = shrink;
  return spec;
}

TEST(ApplyScale, RedimensionsEveryCoupledKnob) {
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 1);
  cfg.apply_scale(50'000);
  EXPECT_EQ(cfg.scale, 50'000u);
  EXPECT_EQ(cfg.content.initial_nodes, 50'000u);
  EXPECT_EQ(cfg.content.joiner_nodes, 5'000u);
  EXPECT_LE(cfg.trace.joins, 2'000u);
  EXPECT_LE(cfg.trace.leaves, 2'000u);
  EXPECT_GE(cfg.content.popular_terms_per_class, 1'000u);
  // The physical network must offer at least one stub slot per peer
  // (initial nodes + joiners).
  const auto slots = static_cast<std::uint64_t>(cfg.phys.total_stub_domains()) *
                     cfg.phys.stub_nodes_per_domain;
  EXPECT_GE(slots, 55'000u);
}

TEST(ApplyScale, SmallScaleKeepsMaterializedTraces) {
  // Every world now streams its trace; what this still pins is that a
  // small scale re-dimensions the world without any size switch, so the
  // trace keeps the preset's query count.
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 1);
  const auto queries = cfg.trace.num_queries;
  cfg.apply_scale(10'000);
  EXPECT_EQ(cfg.scale, 10'000u);
  EXPECT_EQ(cfg.content.initial_nodes, 10'000u);
  EXPECT_EQ(cfg.trace.num_queries, queries);
}

TEST(ScaleAxis, SpecRoundTripsThroughResultsJson) {
  auto spec = tiny_spec();
  spec.algos = {AlgoKind::kFlooding};
  // A scale override would fight the shrink tweak; exercise it purely on
  // the serialization path by patching the recorded spec.
  auto result = run_matrix(spec);
  result.spec.scale = 250'000;

  const auto doc = json::parse(json::dump(results_to_json(result)));
  const auto parsed = spec_from_json(doc);
  EXPECT_EQ(parsed.scale, 250'000u);
}

TEST(ScaleAxis, PreScaleDocumentsParseWithDefaults) {
  // results.json written before the scale axis existed carries no scale
  // key; spec_from_json must default it, not throw.
  auto spec = tiny_spec();
  spec.algos = {AlgoKind::kFlooding};
  const auto result = run_matrix(spec);
  auto doc = results_to_json(result);
  for (auto& [key, value] : doc.as_object()) {
    if (key != "spec") continue;
    auto& spec_obj = value.as_object();
    std::erase_if(spec_obj, [](const auto& kv) {
      return kv.first == "scale";
    });
  }
  const auto parsed = spec_from_json(json::parse(json::dump(doc)));
  EXPECT_EQ(parsed.scale, 0u);
}

TEST(ScaleAxis, TrialRunsCarryThroughputInstrumentation) {
  auto spec = tiny_spec();
  // Baseline algorithms run their propagation synchronously (0 engine
  // events by design); ASAP schedules real engine events and owns real
  // protocol state, so it exercises all three instrumentation fields.
  spec.algos = {AlgoKind::kAsapRw};
  const auto result = run_matrix(spec);
  ASSERT_EQ(result.trials.size(), 1u);
  const auto& r = result.trials[0].result;
  EXPECT_GT(r.events_per_sec, 0.0);
  EXPECT_GT(r.state_bytes, 0u);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_GT(r.peak_rss_bytes, 0u);
#endif
  const auto doc = json::parse(json::dump(results_to_json(result)));
  const auto& run0 = doc.at("trial_runs").as_array()[0];
  EXPECT_GT(run0.at("events_per_sec").as_double(), 0.0);
  EXPECT_GT(run0.at("state_bytes").as_double(), 0.0);
  EXPECT_NE(run0.find("peak_rss_bytes"), nullptr);
}

TEST(ScaleAxis, StreamingMatrixIsBitIdenticalToMaterialized) {
  // The headline determinism claim behind streaming synthesis: the same
  // matrix — several algorithms, faults off — digests exactly as it did on
  // materialized traces.
  const auto result = run_matrix(tiny_spec());
  const std::uint64_t want[] = {0x0b86a594b9b440a6ULL, 0x418dccbcffe687b2ULL,
                                0x4d991b53af0eb8d7ULL};
  const std::uint64_t want_events[] = {0, 0, 381};
  ASSERT_EQ(result.trials.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result.trials[i].result.digest, want[i])
        << algo_name(result.trials[i].algo);
    EXPECT_EQ(result.trials[i].result.engine_events, want_events[i]);
  }
  EXPECT_EQ(result.matrix_digest, 0xba405badd9ac0772ULL);
}

TEST(ScaleAxis, StreamingIsBitIdenticalUnderFaults) {
  // The fault planner consumes the churn bitmap the world's build pass
  // recorded; the plan, and so the digests, match the materialized runs.
  auto spec = tiny_spec();
  spec.algos = {AlgoKind::kAsapRw};
  spec.fault_scenarios = {faults::FaultScenario{}, faults::fault_preset("churn")};
  const auto result = run_matrix(spec);
  const std::uint64_t want[] = {0x4d991b53af0eb8d7ULL, 0x5166fb5cc50c303fULL};
  ASSERT_EQ(result.trials.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(result.trials[i].result.digest, want[i])
        << result.trials[i].scenario;
  }
  EXPECT_EQ(result.matrix_digest, 0xf4a9619ef4309301ULL);
}

TEST(ScaleAxis, StreamingWorldCarriesChurnBitmapNotEvents) {
  // A default small world: no knob selects streaming, every world does.
  const auto cfg =
      ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 3);
  const auto world = build_world(cfg);
  EXPECT_TRUE(world.streaming.enabled);
  EXPECT_TRUE(world.trace.events.empty());
  EXPECT_EQ(world.streaming.churned.size(), cfg.content.initial_nodes);
  EXPECT_EQ(world.trace.num_queries, cfg.trace.num_queries);
  EXPECT_GT(world.trace.num_leaves, 0u);
  EXPECT_GT(world.trace.horizon, 0.0);
}

}  // namespace
}  // namespace asap::harness
