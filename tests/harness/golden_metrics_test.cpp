// Golden-metrics regression gate.
//
// tests/support/golden_small.json is a committed results.json produced by
// the matrix runner on the kSmall preset (all six algorithms, crawled
// topology, seed 42). This test re-runs the exact spec recorded in the
// file and diffs every per-trial digest and every headline metric against
// it, so "did PR X silently change Fig 4-9?" is a red test with a
// readable diff instead of an eyeball check.
//
// When a change is *intentional*, refresh the baseline and commit it
// (EXPERIMENTS.md, "Matrix runner" section):
//
//   build/tools/asap_sim --matrix --preset small --topology crawled
//     --algo all --seed 42 --trials 1 --json tests/support/golden_small.json
//
// (one command line; wrapped here for width).
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "harness/matrix_runner.hpp"

namespace asap::harness {
namespace {

constexpr const char* kGoldenPath =
    ASAP_TEST_SUPPORT_DIR "/golden_small.json";
constexpr const char* kRefreshHint =
    "\nIf this change is intentional, refresh the baseline:\n"
    "  build/tools/asap_sim --matrix --preset small --topology crawled "
    "--algo all --seed 42 --trials 1 --json "
    "tests/support/golden_small.json\n";

json::Value load_golden() {
  std::ifstream in(kGoldenPath);
  EXPECT_TRUE(in.good()) << "cannot open " << kGoldenPath;
  std::ostringstream buf;
  buf << in.rdbuf();
  return json::parse(buf.str());
}

/// Deterministic replays should match the baseline exactly (the writer's
/// doubles round-trip); the epsilon only absorbs text-formatting slack.
bool near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

TEST(GoldenMetrics, SmallPresetMatchesCommittedBaseline) {
  const json::Value golden = load_golden();
  ASSERT_EQ(golden.at("schema").as_string(), "asap-matrix-results/1");

  // Re-run exactly the spec the baseline records.
  MatrixSpec spec = spec_from_json(golden);
  const MatrixResult actual = run_matrix(spec);

  const auto& golden_cells = golden.at("cells").as_array();
  ASSERT_EQ(actual.cells.size(), golden_cells.size())
      << "cell count drifted from the baseline" << kRefreshHint;

  for (std::size_t i = 0; i < golden_cells.size(); ++i) {
    const json::Value& want = golden_cells[i];
    const CellAggregate& got = actual.cells[i];
    const std::string label = want.at("topology").as_string() + "/" +
                              want.at("algo").as_string();
    EXPECT_EQ(topology_name(got.topology), want.at("topology").as_string());
    EXPECT_EQ(algo_name(got.algo), want.at("algo").as_string());

    const auto& want_digests = want.at("digests").as_array();
    ASSERT_EQ(got.digests.size(), want_digests.size()) << label;
    for (std::size_t k = 0; k < want_digests.size(); ++k) {
      EXPECT_EQ(got.digests[k], want_digests[k].u64_hex())
          << label << " trial " << k << ": run digest drifted (golden "
          << want_digests[k].as_string() << ", actual "
          << json::hex_u64(got.digests[k])
          << ") — the simulation executes differently now" << kRefreshHint;
    }

    const json::Value& want_metrics = want.at("metrics");
    for (const auto& [name, summary] : got.metrics) {
      const json::Value* want_metric = want_metrics.find(name);
      ASSERT_NE(want_metric, nullptr)
          << label << ": metric " << name << " missing from baseline"
          << kRefreshHint;
      const double want_mean = want_metric->at("mean").as_double();
      EXPECT_TRUE(near(summary.mean, want_mean))
          << label << " " << name << ": golden mean " << want_mean
          << ", actual " << summary.mean << kRefreshHint;
      const double want_sd = want_metric->at("stddev").as_double();
      EXPECT_TRUE(near(summary.stddev, want_sd))
          << label << " " << name << ": golden stddev " << want_sd
          << ", actual " << summary.stddev << kRefreshHint;
    }
  }

  EXPECT_EQ(actual.matrix_digest, golden.at("matrix_digest").u64_hex())
      << "matrix digest drifted (golden "
      << golden.at("matrix_digest").as_string() << ", actual "
      << json::hex_u64(actual.matrix_digest) << ")" << kRefreshHint;
}

}  // namespace
}  // namespace asap::harness
