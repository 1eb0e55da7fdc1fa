// Integration tests: rejoin churn and loss injection through the full
// replay pipeline.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/replay.hpp"
#include "harness/world.hpp"

namespace asap::harness {
namespace {

ExperimentConfig churny_config() {
  auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled, 9);
  cfg.content.initial_nodes = 600;
  cfg.content.joiner_nodes = 40;
  cfg.trace.num_queries = 600;
  cfg.trace.joins = 30;
  cfg.trace.leaves = 60;
  cfg.trace.rejoin_fraction = 1.0;
  cfg.trace.mean_offline = 15.0;
  cfg.warmup = 120.0;
  return cfg;
}

class ChurnLossTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new World(build_world(churny_config()));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static World* world_;
};

World* ChurnLossTest::world_ = nullptr;

TEST_F(ChurnLossTest, TraceContainsRejoins) {
  EXPECT_GT(world_->trace.num_rejoins, 0u);
  EXPECT_LE(world_->trace.num_rejoins, world_->trace.num_leaves);
}

TEST_F(ChurnLossTest, AsapSurvivesHeavySessionChurn) {
  const auto res = run_experiment(*world_, AlgoKind::kAsapRw);
  EXPECT_EQ(res.search.total(), world_->trace.num_queries);
  EXPECT_GT(res.search.success_rate(), 0.6)
      << "rejoin handling (re-advertise + ads request) must keep the "
         "system searchable under heavy churn";
}

TEST_F(ChurnLossTest, RejoinsReattachOverlayNodes) {
  // The replay must not throw on rejoin events (overlay reattach path) and
  // the baseline must keep finding content that left and came back.
  const auto res = run_experiment(*world_, AlgoKind::kFlooding);
  EXPECT_GT(res.search.success_rate(), 0.6);
}

/// A system outside the built-in set that checks, at every rejoin it is
/// handed, that the replay already reattached the peer.
class RejoinProbe final : public search::SearchAlgorithm {
 public:
  explicit RejoinProbe(search::Ctx& ctx) : ctx_(ctx) {}
  std::string name() const override { return "rejoin-probe"; }
  void on_trace_event(const trace::TraceEvent& ev) override {
    if (ev.type != trace::TraceEventType::kRejoin) return;
    ++rejoins;
    if (ctx_.ov.attached(ev.node) && ctx_.ov.degree(ev.node) > 0 &&
        ctx_.online(ev.node)) {
      ++attached;
    }
  }
  std::uint32_t rejoins = 0;
  std::uint32_t attached = 0;

 private:
  search::Ctx& ctx_;
};

TEST_F(ChurnLossTest, CustomSystemSeesRejoinedPeersAttached) {
  std::uint32_t rejoins = 0;
  std::uint32_t attached = 0;
  const SystemSpec probe{
      "rejoin-probe",
      {sim::Traffic::kQuery},
      [](search::Ctx& ctx) { return std::make_unique<RejoinProbe>(ctx); },
      [&](const search::SearchAlgorithm& algo, RunResult&) {
        const auto& p = static_cast<const RejoinProbe&>(algo);
        rejoins = p.rejoins;
        attached = p.attached;
      }};
  run_experiment(*world_, probe);
  EXPECT_EQ(rejoins, world_->trace.num_rejoins);
  EXPECT_GT(rejoins, 0u);
  EXPECT_EQ(attached, rejoins) << "a rejoined peer reached the system "
                                  "before the overlay reattached it";
}

TEST_F(ChurnLossTest, LossDegradesFloodingMoreThanAsap) {
  RunOptions lossy;
  lossy.message_loss = 0.25;
  const auto flood_clean = run_experiment(*world_, AlgoKind::kFlooding);
  const auto flood_lossy =
      run_experiment(*world_, AlgoKind::kFlooding, lossy);
  const auto asap_clean = run_experiment(*world_, AlgoKind::kAsapRw);
  const auto asap_lossy = run_experiment(*world_, AlgoKind::kAsapRw, lossy);

  const double flood_drop =
      flood_clean.search.success_rate() - flood_lossy.search.success_rate();
  const double asap_drop =
      asap_clean.search.success_rate() - asap_lossy.search.success_rate();
  EXPECT_GT(flood_drop, 0.0);
  EXPECT_LT(asap_drop, flood_drop)
      << "reliable confirmations + fallback must shed loss better than "
         "redundant flooding";
}

TEST_F(ChurnLossTest, LossOptionValidated) {
  RunOptions bad;
  bad.message_loss = 1.001;
  EXPECT_THROW(run_experiment(*world_, AlgoKind::kFlooding, bad),
               ConfigError);
  bad.message_loss = -0.1;
  EXPECT_THROW(run_experiment(*world_, AlgoKind::kFlooding, bad),
               ConfigError);
}

TEST_F(ChurnLossTest, ZeroLossReproducesTheLossFreeDigestBitForBit) {
  // loss=0.0 must not even touch the RNG (transmission_lost()
  // short-circuits), so the digest matches the default run exactly.
  RunOptions zero_loss;
  zero_loss.message_loss = 0.0;
  for (const auto kind : {AlgoKind::kFlooding, AlgoKind::kAsapRw}) {
    const auto plain = run_experiment(*world_, kind);
    const auto lossy = run_experiment(*world_, kind, zero_loss);
    EXPECT_EQ(plain.digest, lossy.digest) << algo_name(kind);
    EXPECT_EQ(plain.engine_events, lossy.engine_events) << algo_name(kind);
  }
}

TEST_F(ChurnLossTest, TotalLossTerminatesAndAuditsClean) {
  // loss=1.0 is a valid blackout scenario: every transmission is dropped,
  // but senders still pay for each attempt, budgets still burn down, and
  // the run must reach the horizon with conservation intact.
  RunOptions blackout;
  blackout.message_loss = 1.0;
  blackout.audit = true;
  for (const auto kind : kAllAlgos) {
    const auto res = run_experiment(*world_, kind, blackout);
    EXPECT_EQ(res.search.total(), world_->trace.num_queries)
        << algo_name(kind);
    EXPECT_TRUE(res.audited) << algo_name(kind);
    EXPECT_EQ(res.audit_violations, 0u)
        << algo_name(kind) << ": "
        << (res.audit_messages.empty() ? "" : res.audit_messages.front());
    // Nothing ever crosses the network — warm-up ad dissemination is
    // lossy too, so even ASAP's caches stay empty and no search succeeds.
    EXPECT_DOUBLE_EQ(res.search.success_rate(), 0.0) << algo_name(kind);
  }
}

TEST_F(ChurnLossTest, IntermediateLossIsDeterministicUnderAFixedSeed) {
  RunOptions lossy;
  lossy.message_loss = 0.37;
  const auto a = run_experiment(*world_, AlgoKind::kAsapRw, lossy);
  const auto b = run_experiment(*world_, AlgoKind::kAsapRw, lossy);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.engine_events, b.engine_events);
  EXPECT_DOUBLE_EQ(a.search.success_rate(), b.search.success_rate());
  // And the loss dice are really being rolled: the digest differs from
  // the loss-free stream.
  const auto clean = run_experiment(*world_, AlgoKind::kAsapRw);
  EXPECT_NE(a.digest, clean.digest);
}

}  // namespace
}  // namespace asap::harness
