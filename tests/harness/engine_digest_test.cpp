// ISSUE 6 acceptance sweep: the event-queue structure (4-ary heap vs
// ladder queue, including mid-run migrations) and the callback storage
// path (inline SBO vs forced SlabPool fallback) are pure speed choices —
// every configuration must replay a world to a bit-identical run digest,
// for all six algorithms, with and without fault injection.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "faults/fault_config.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"

namespace asap::harness {
namespace {

/// Smaller than determinism_test's world: this suite replays 6 algorithms
/// x 4 engine configurations, plus 2 algorithms x 3 fault presets x 4.
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

struct NamedTuning {
  const char* name;
  sim::EngineTuning tuning;
};

std::vector<NamedTuning> tuning_sweep() {
  sim::EngineTuning heap_only;
  heap_only.ladder_threshold = static_cast<std::size_t>(-1);

  sim::EngineTuning ladder_only;
  ladder_only.ladder_threshold = 0;
  ladder_only.heap_threshold = 0;

  sim::EngineTuning pooled;
  pooled.force_heap_callbacks = true;

  return {
      {"heap-only", heap_only},
      {"ladder-only", ladder_only},
      {"forced-pool-callbacks", pooled},
  };
}

TEST_F(EngineDigestTest, AllQueueAndCallbackPathsMatchDefaultDigest) {
  for (const auto kind : kAllAlgos) {
    const auto base = run_experiment(*world_, kind);
    ASSERT_NE(base.digest, 0u) << algo_name(kind);
    for (const auto& [name, tuning] : tuning_sweep()) {
      RunOptions opts;
      opts.engine_tuning = tuning;
      const auto res = run_experiment(*world_, kind, opts);
      EXPECT_EQ(res.digest, base.digest) << algo_name(kind) << " / " << name;
      EXPECT_EQ(res.engine_events, base.engine_events)
          << algo_name(kind) << " / " << name;
    }
  }
}

TEST_F(EngineDigestTest, SweepHoldsUnderFaultPresets) {
  // Fault injection reshapes the event population (crash timers, burst
  // windows, jittered latencies) — exactly the traffic that stresses
  // rung rebuilds — so the identity must hold under the PR 5 presets too.
  // "byzantine" adds the adversarial roles (polluters, stale advertisers,
  // confirm droppers) and a query storm. A representative algorithm pair
  // keeps the suite's runtime bounded: one baseline, one ASAP variant.
  for (const auto kind : {AlgoKind::kFlooding, AlgoKind::kAsapRw}) {
    for (const char* preset : {"churn", "chaos", "byzantine"}) {
      RunOptions base_opts;
      base_opts.faults = faults::fault_preset(preset).config;
      const auto base = run_experiment(*world_, kind, base_opts);
      ASSERT_NE(base.digest, 0u) << algo_name(kind) << " / " << preset;
      for (const auto& [name, tuning] : tuning_sweep()) {
        RunOptions opts = base_opts;
        opts.engine_tuning = tuning;
        const auto res = run_experiment(*world_, kind, opts);
        EXPECT_EQ(res.digest, base.digest)
            << algo_name(kind) << " / " << preset << " / " << name;
      }
    }
  }
}

TEST_F(EngineDigestTest, AsapExtensionBranchesMatchPinnedDigests) {
  // Absolute pins for two asap(rw) extensions no golden covers: refresh
  // pull (a cacher missing the ad fetches it from the source) and the
  // interest-biased delivery walk. Each must also hold across the queue
  // and callback sweep.
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
    const auto base = run_experiment(*world_, AlgoKind::kAsapRw, opts);
    EXPECT_EQ(base.digest, pin.digest) << pin.name;
    for (const auto& [name, tuning] : tuning_sweep()) {
      opts.engine_tuning = tuning;
      EXPECT_EQ(run_experiment(*world_, AlgoKind::kAsapRw, opts).digest,
                base.digest)
          << pin.name << " / " << name;
    }
  }
}

}  // namespace
}  // namespace asap::harness
