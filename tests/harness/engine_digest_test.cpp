// Absolute run-digest pins for the engine: the combined engine + ledger
// digest of every paper algorithm on one small world, and of a baseline
// and an ASAP variant under the churn, chaos and byzantine fault presets.
// The digest hashes every executed event's (time, seq) and every ledger
// deposit, so any change to the engine's pop order, or to what a callback
// does, moves a pin.
#include <gtest/gtest.h>

#include <cstdint>

#include "faults/fault_config.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"

namespace asap::harness {
namespace {

/// Smaller than determinism_test's world: this suite replays 6 algorithms,
/// plus 2 algorithms x 3 fault presets, plus 2 ASAP extension branches.
ExperimentConfig sweep_config() {
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 23);
  cfg.content.initial_nodes = 300;
  cfg.content.joiner_nodes = 20;
  cfg.trace.num_queries = 150;
  cfg.trace.joins = 10;
  cfg.trace.leaves = 10;
  cfg.warmup = 120.0;
  return cfg;
}

class EngineDigestTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new World(build_world(sweep_config()));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static World* world_;
};

World* EngineDigestTest::world_ = nullptr;

TEST_F(EngineDigestTest, PaperAlgorithmsMatchPinnedDigests) {
  struct Pin {
    AlgoKind kind;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {AlgoKind::kFlooding, 0xbac8fbe57e2047e7ULL},
      {AlgoKind::kRandomWalk, 0xa0c75b4f523bac49ULL},
      {AlgoKind::kGsa, 0x4b7499c1109ed5b9ULL},
      {AlgoKind::kAsapFld, 0x72e3409344298712ULL},
      {AlgoKind::kAsapRw, 0x78f939c80169ebafULL},
      {AlgoKind::kAsapGsa, 0x02ba072d31e5d0cfULL},
  };
  for (const Pin& pin : pins) {
    EXPECT_EQ(run_experiment(*world_, pin.kind).digest, pin.digest)
        << algo_name(pin.kind);
  }
}

TEST_F(EngineDigestTest, FaultPresetsMatchPinnedDigests) {
  // Fault injection reshapes the event population (crash timers, burst
  // windows, jittered latencies); "byzantine" adds the adversarial roles
  // (polluters, stale advertisers, confirm droppers) and a query storm.
  // One baseline and one ASAP variant keep the suite's runtime bounded.
  struct Pin {
    AlgoKind kind;
    const char* preset;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {AlgoKind::kFlooding, "churn", 0xf9744cddde0fecbfULL},
      {AlgoKind::kFlooding, "chaos", 0xf139aee707aceac3ULL},
      {AlgoKind::kFlooding, "byzantine", 0xa69c0ba6c85b70c7ULL},
      {AlgoKind::kAsapRw, "churn", 0x5548240d044dfc79ULL},
      {AlgoKind::kAsapRw, "chaos", 0x5ddf39d70e7625d4ULL},
      {AlgoKind::kAsapRw, "byzantine", 0xf5b55a0eed44f7f5ULL},
  };
  for (const Pin& pin : pins) {
    RunOptions opts;
    opts.faults = faults::fault_preset(pin.preset).config;
    EXPECT_EQ(run_experiment(*world_, pin.kind, opts).digest, pin.digest)
        << algo_name(pin.kind) << " / " << pin.preset;
  }
}

TEST_F(EngineDigestTest, AsapExtensionBranchesMatchPinnedDigests) {
  // Absolute pins for two asap(rw) extensions no golden covers: refresh
  // pull (a cacher missing the ad fetches it from the source) and the
  // interest-biased delivery walk.
  struct Pin {
    const char* name;
    void (*apply)(ads::AsapParams&);
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"refresh_pull", [](ads::AsapParams& p) { p.refresh_pull = true; },
       0x177e0c384383b517ULL},
      {"interest_bias=2", [](ads::AsapParams& p) { p.interest_bias = 2.0; },
       0xe14c731341eb9584ULL},
  };
  for (const Pin& pin : pins) {
    auto params = default_asap_params(AlgoKind::kAsapRw, world_->cfg.preset);
    pin.apply(params);
    RunOptions opts;
    opts.asap = params;
    EXPECT_EQ(run_experiment(*world_, AlgoKind::kAsapRw, opts).digest,
              pin.digest)
        << pin.name;
  }
}

}  // namespace
}  // namespace asap::harness
