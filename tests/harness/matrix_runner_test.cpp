// MatrixRunner contract: bit-identical results regardless of parallelism,
// canonical trial seeding, stable ordering, and a results.json that
// round-trips through the JSON module.
#include "harness/matrix_runner.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"

namespace asap::harness {
namespace {

/// Shrinks every world the spec builds to keep the suite fast; the runner
/// itself never sees preset-sized state in these tests.
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
  spec.algos = {AlgoKind::kFlooding, AlgoKind::kAsapRw};
  spec.seed = 7;
  spec.trials = 2;
  spec.tweak = shrink;
  return spec;
}

TEST(TrialSeedSalt, TrialZeroIsUnsalted) {
  EXPECT_EQ(trial_seed_salt(0), 0u);
}

TEST(TrialSeedSalt, LaterTrialsAreDistinct) {
  std::set<std::uint64_t> salts;
  for (std::uint32_t k = 0; k < 64; ++k) salts.insert(trial_seed_salt(k));
  EXPECT_EQ(salts.size(), 64u);
  // Stable across calls — this is a published derivation, not a cache.
  EXPECT_EQ(trial_seed_salt(3), trial_seed_salt(3));
}

TEST(MatrixRunner, JobsDoNotChangeAnyDigest) {
  auto spec = tiny_spec();
  spec.jobs = 1;
  const auto sequential = run_matrix(spec);
  spec.jobs = 4;
  const auto parallel = run_matrix(spec);

  ASSERT_EQ(sequential.trials.size(), parallel.trials.size());
  for (std::size_t i = 0; i < sequential.trials.size(); ++i) {
    const auto& a = sequential.trials[i];
    const auto& b = parallel.trials[i];
    EXPECT_EQ(a.result.digest, b.result.digest)
        << topology_name(a.topology) << '/' << algo_name(a.algo) << " trial "
        << a.trial;
    EXPECT_EQ(a.result.engine_events, b.result.engine_events);
  }
  EXPECT_EQ(sequential.matrix_digest, parallel.matrix_digest);
  EXPECT_NE(sequential.matrix_digest, 0u);
}

TEST(MatrixRunner, AutoJobsMatchesOneJob) {
  // jobs = 0 sizes the pool to the hardware (ThreadPool clamps it to at
  // least one worker); the results must not depend on that width.
  auto spec = tiny_spec();
  spec.jobs = 1;
  const auto one = run_matrix(spec);
  spec.jobs = 0;
  const auto autodetected = run_matrix(spec);

  ASSERT_EQ(one.trials.size(), autodetected.trials.size());
  for (std::size_t i = 0; i < one.trials.size(); ++i) {
    EXPECT_EQ(one.trials[i].result.digest,
              autodetected.trials[i].result.digest);
  }
  EXPECT_EQ(one.matrix_digest, autodetected.matrix_digest);
}

TEST(MatrixRunner, TrialZeroMatchesAPlainRun) {
  auto spec = tiny_spec();
  spec.trials = 1;
  spec.algos = {AlgoKind::kAsapRw};
  const auto matrix = run_matrix(spec);

  auto cfg = ExperimentConfig::make(spec.preset, TopologyKind::kCrawled,
                                    spec.seed);
  shrink(cfg);
  const auto plain = run_experiment(build_world(cfg), AlgoKind::kAsapRw);

  ASSERT_EQ(matrix.trials.size(), 1u);
  EXPECT_EQ(matrix.trials[0].world_seed, spec.seed);
  EXPECT_EQ(matrix.trials[0].result.digest, plain.digest)
      << "trial 0 must be the unsalted canonical run";
}

TEST(MatrixRunner, TrialsAreIndependentlySeeded) {
  auto spec = tiny_spec();
  spec.algos = {AlgoKind::kFlooding};
  spec.trials = 3;
  const auto result = run_matrix(spec);

  std::set<std::uint64_t> digests;
  for (const auto& run : result.trials) digests.insert(run.result.digest);
  EXPECT_EQ(digests.size(), 3u) << "trials must not repeat each other";
}

TEST(MatrixRunner, CanonicalOrderingAndAggregates) {
  const auto result = run_matrix(tiny_spec());

  ASSERT_EQ(result.trials.size(), 4u);  // 1 topo x 2 algos x 2 trials
  EXPECT_EQ(result.trials[0].algo, AlgoKind::kFlooding);
  EXPECT_EQ(result.trials[0].trial, 0u);
  EXPECT_EQ(result.trials[1].algo, AlgoKind::kFlooding);
  EXPECT_EQ(result.trials[1].trial, 1u);
  EXPECT_EQ(result.trials[2].algo, AlgoKind::kAsapRw);
  EXPECT_EQ(result.trials[3].trial, 1u);

  ASSERT_EQ(result.cells.size(), 2u);
  for (const auto& cell : result.cells) {
    EXPECT_EQ(cell.trials, 2u);
    ASSERT_EQ(cell.digests.size(), 2u);
    ASSERT_FALSE(cell.metrics.empty());
    for (const auto& [name, summary] : cell.metrics) {
      EXPECT_EQ(summary.count, 2u) << name;
      EXPECT_LE(summary.min, summary.mean) << name;
      EXPECT_LE(summary.mean, summary.max) << name;
      EXPECT_GE(summary.stddev, 0.0) << name;
    }
  }
  // Cell digests mirror the trial slots.
  EXPECT_EQ(result.cells[0].digests[1], result.trials[1].result.digest);
}

TEST(MatrixRunner, ResultsJsonRoundTripsTheSpec) {
  auto spec = tiny_spec();
  spec.queries = 200;
  spec.options.message_loss = 0.05;
  spec.options.audit = true;
  const auto result = run_matrix(spec);

  const auto doc = json::parse(json::dump(results_to_json(result)));
  EXPECT_EQ(doc.at("schema").as_string(), "asap-matrix-results/1");
  // Retired key: older files still carry it, new files do not.
  EXPECT_EQ(doc.at("spec").find("shards"), nullptr);
  EXPECT_EQ(doc.at("matrix_digest").u64_hex(), result.matrix_digest);

  const auto parsed = spec_from_json(doc);
  EXPECT_EQ(parsed.preset, spec.preset);
  EXPECT_EQ(parsed.topologies, spec.topologies);
  EXPECT_EQ(parsed.algos, spec.algos);
  EXPECT_EQ(parsed.seed, spec.seed);
  EXPECT_EQ(parsed.trials, spec.trials);
  EXPECT_EQ(parsed.queries, spec.queries);
  EXPECT_DOUBLE_EQ(parsed.options.message_loss, spec.options.message_loss);
  EXPECT_TRUE(parsed.options.audit);

  const auto& cells = doc.at("cells").as_array();
  ASSERT_EQ(cells.size(), result.cells.size());
  EXPECT_EQ(cells[0].at("digests").as_array()[0].u64_hex(),
            result.cells[0].digests[0]);
  // Audited runs must have come back clean.
  for (const auto& run : result.trials) {
    EXPECT_TRUE(run.result.audited);
    EXPECT_EQ(run.result.audit_violations, 0u);
  }
}

TEST(MatrixRunner, SpecJsonRejectsCountsThatAreNotUint32) {
  // trials, queries and scale are counts: a negative, fractional or
  // oversized value must be rejected naming the key, not wrapped or
  // truncated by a cast.
  const auto spec_with = [](const char* key, double value) {
    json::Object spec{
        {"preset", "small"},
        {"topologies", json::Array{json::Value("crawled")}},
        {"algos", json::Array{json::Value("flooding")}},
        {"seed", json::hex_u64(7)},
        {"trials", 2},
        {"queries", 0},
        {"message_loss", 0.0},
        {"audit", false},
        {"scale", 0},
    };
    for (auto& [k, v] : spec) {
      if (k == key) v = json::Value(value);
    }
    json::Object doc;
    doc.emplace_back("spec", std::move(spec));
    return json::Value(std::move(doc));
  };
  for (const char* key : {"trials", "queries", "scale"}) {
    EXPECT_EQ(spec_from_json(spec_with(key, 4294967295.0)).trials,
              std::string(key) == "trials" ? 4294967295u : 2u);
    for (const double bad : {-1.0, 2.7, 1e12, 4294967296.0}) {
      try {
        spec_from_json(spec_with(key, bad));
        ADD_FAILURE() << key << " = " << bad << " was accepted";
      } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << "error does not name the key: " << e.what();
      }
    }
  }
}

TEST(MatrixRunner, RejectsDegenerateSpecs) {
  auto spec = tiny_spec();
  spec.trials = 0;
  EXPECT_THROW(run_matrix(spec), ConfigError);
  spec = tiny_spec();
  spec.algos.clear();
  EXPECT_THROW(run_matrix(spec), ConfigError);
  spec = tiny_spec();
  spec.topologies.clear();
  EXPECT_THROW(run_matrix(spec), ConfigError);
  spec = tiny_spec();
  spec.options.seed_salt = 5;  // reserved for the runner's own derivation
  EXPECT_THROW(run_matrix(spec), ConfigError);
}

}  // namespace
}  // namespace asap::harness
