#include "faults/fault_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "harness/world.hpp"
#include "trace/content_model.hpp"
#include "trace/streaming_trace_gen.hpp"

namespace asap::faults {
namespace {

constexpr Seconds kStart = 60.0;
constexpr Seconds kEnd = 660.0;
constexpr std::uint32_t kNodes = 200;
constexpr std::uint32_t kDomains = 12;

FaultPlan build(const FaultConfig& cfg, std::uint64_t seed = 7,
                std::vector<std::uint8_t> churned = {}) {
  churned.resize(kNodes, 0);
  return FaultPlan::build(cfg, seed, kNodes,
                          std::span<const std::uint8_t>(churned), kStart,
                          kEnd, kDomains);
}

/// Marks every initial node a trace event joins, leaves or rejoins.
void mark_churn(const trace::TraceEvent& ev,
                std::vector<std::uint8_t>& churned) {
  if ((ev.type == trace::TraceEventType::kJoin ||
       ev.type == trace::TraceEventType::kLeave ||
       ev.type == trace::TraceEventType::kRejoin) &&
      ev.node < churned.size()) {
    churned[ev.node] = 1;
  }
}

/// Churn bitmap of a real trace: drains a churn-heavy build-mode stream
/// over a kNodes-peer content model.
std::vector<std::uint8_t> churned_by_stream() {
  trace::ContentModelParams mp;
  mp.initial_nodes = kNodes;
  mp.joiner_nodes = 20;
  Rng content_rng(11);
  auto model = trace::ContentModel::build(mp, content_rng);
  trace::TraceParams tp;
  tp.num_queries = 400;
  tp.joins = 20;
  tp.leaves = 60;
  trace::StreamingTraceGenerator gen(model, tp, Rng(12));
  std::vector<std::uint8_t> churned(kNodes, 0);
  trace::TraceEvent ev;
  while (gen.next(ev)) mark_churn(ev, churned);
  return churned;
}

TEST(FaultPlan, ZeroConfigCompilesToEmptyPlan) {
  const FaultPlan plan = build(FaultConfig{});
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.crashes().empty());
  EXPECT_TRUE(plan.bursts().empty());
  EXPECT_TRUE(plan.partitions().empty());
  EXPECT_EQ(plan.first_fault_time(),
            std::numeric_limits<double>::infinity());
}

TEST(FaultPlan, SameSeedSamePlan) {
  FaultConfig cfg;
  cfg.crash_fraction = 0.10;
  cfg.partitions = 2;
  cfg.bursts = 3;
  const FaultPlan a = build(cfg);
  const FaultPlan b = build(cfg);
  ASSERT_EQ(a.crashes().size(), b.crashes().size());
  for (std::size_t i = 0; i < a.crashes().size(); ++i) {
    EXPECT_EQ(a.crashes()[i].node, b.crashes()[i].node);
    EXPECT_DOUBLE_EQ(a.crashes()[i].at, b.crashes()[i].at);
  }
  ASSERT_EQ(a.partitions().size(), b.partitions().size());
  for (std::size_t i = 0; i < a.partitions().size(); ++i) {
    EXPECT_EQ(a.partitions()[i].domains, b.partitions()[i].domains);
  }
  EXPECT_DOUBLE_EQ(a.first_fault_time(), b.first_fault_time());
}

TEST(FaultPlan, CrashesMatchFractionAndStayInWindow) {
  FaultConfig cfg;
  cfg.crash_fraction = 0.10;
  cfg.crash_detection = 25.0;
  const FaultPlan plan = build(cfg);
  ASSERT_EQ(plan.crashes().size(), 20u);  // 10% of 200
  std::set<NodeId> nodes;
  for (const auto& c : plan.crashes()) {
    EXPECT_LT(c.node, kNodes);
    EXPECT_TRUE(nodes.insert(c.node).second) << "node crashed twice";
    EXPECT_GE(c.at, kStart);
    EXPECT_LT(c.at, kEnd);
    EXPECT_DOUBLE_EQ(c.detect_at, c.at + 25.0);
  }
  EXPECT_DOUBLE_EQ(plan.first_fault_time(), plan.crashes().front().at);
  for (const auto& c : plan.crashes()) {
    EXPECT_LE(plan.first_fault_time(), c.at);
  }
}

TEST(FaultPlan, TraceChurnedNodesAreNeverCrashCandidates) {
  // A 100% crash fraction must pick exactly the nodes the trace leaves
  // alone.
  const auto churned = churned_by_stream();
  const auto num_churned = static_cast<std::size_t>(
      std::count(churned.begin(), churned.end(), std::uint8_t{1}));
  ASSERT_GT(num_churned, 0u);
  FaultConfig cfg;
  cfg.crash_fraction = 1.0;
  const FaultPlan plan = build(cfg, 7, churned);
  EXPECT_EQ(plan.crashes().size(), kNodes - num_churned);
  for (const auto& c : plan.crashes()) {
    EXPECT_FALSE(churned[c.node]) << "crash collides with trace churn";
  }
}

TEST(FaultPlan, BurstAndPartitionWindowsLandInMeasurement) {
  FaultConfig cfg;
  cfg.bursts = 3;
  cfg.burst_duration = 15.0;
  cfg.partitions = 2;
  cfg.partition_duration = 60.0;
  cfg.partition_fraction = 0.25;
  const FaultPlan plan = build(cfg);
  ASSERT_EQ(plan.bursts().size(), 3u);
  for (const auto& w : plan.bursts()) {
    EXPECT_GE(w.begin, kStart);
    EXPECT_LT(w.begin, kEnd);
    EXPECT_DOUBLE_EQ(w.end, w.begin + 15.0);
  }
  ASSERT_EQ(plan.partitions().size(), 2u);
  for (const auto& p : plan.partitions()) {
    EXPECT_GE(p.begin, kStart);
    EXPECT_LT(p.begin, kEnd);
    EXPECT_DOUBLE_EQ(p.end, p.begin + 60.0);
    EXPECT_FALSE(p.domains.empty());
    EXPECT_LE(p.domains.size(), kDomains / 4 + 1);
    for (std::size_t i = 0; i < p.domains.size(); ++i) {
      EXPECT_LT(p.domains[i], kDomains);
      if (i > 0) {
        EXPECT_LT(p.domains[i - 1], p.domains[i]) << "not sorted";
      }
    }
  }
}

TEST(FaultPlan, ContinuousLinkFaultsStartAtMeasureStart) {
  FaultConfig loss;
  loss.link_loss = 0.05;
  EXPECT_DOUBLE_EQ(build(loss).first_fault_time(), kStart);

  FaultConfig jitter;
  jitter.latency_jitter = 0.25;
  EXPECT_DOUBLE_EQ(build(jitter).first_fault_time(), kStart);
  EXPECT_FALSE(build(jitter).empty());
}

FaultConfig byzantine_cfg() {
  FaultConfig cfg;
  cfg.polluter_fraction = 0.10;
  cfg.stale_advertiser_fraction = 0.05;
  cfg.confirm_dropper_fraction = 0.05;
  cfg.crash_fraction = 0.10;
  cfg.storms = 2;
  return cfg;
}

TEST(FaultPlanAdversarial, RolesMatchFractionsSortedAndDisjoint) {
  const FaultPlan plan = build(byzantine_cfg());
  EXPECT_EQ(plan.polluters().size(), 20u);         // 10% of 200
  EXPECT_EQ(plan.stale_advertisers().size(), 10u); // 5%
  EXPECT_EQ(plan.confirm_droppers().size(), 10u);  // 5%
  std::set<NodeId> seen;
  const auto check_roster = [&](const std::vector<NodeId>& roster,
                                const char* name) {
    for (std::size_t i = 0; i < roster.size(); ++i) {
      EXPECT_LT(roster[i], kNodes) << name;
      if (i > 0) {
        EXPECT_LT(roster[i - 1], roster[i]) << name << " not sorted";
      }
      EXPECT_TRUE(seen.insert(roster[i]).second)
          << name << ": node " << roster[i] << " holds two roles";
    }
  };
  check_roster(plan.polluters(), "polluters");
  check_roster(plan.stale_advertisers(), "stale-advertisers");
  check_roster(plan.confirm_droppers(), "confirm-droppers");
  // Disjoint from the crash roster too: a crashed polluter would make the
  // "under attack" population ambiguous.
  for (const auto& c : plan.crashes()) {
    EXPECT_TRUE(seen.insert(c.node).second)
        << "node " << c.node << " both crashes and holds a Byzantine role";
  }
}

TEST(FaultPlanAdversarial, SameSeedSameRosters) {
  const FaultPlan a = build(byzantine_cfg());
  const FaultPlan b = build(byzantine_cfg());
  EXPECT_EQ(a.polluters(), b.polluters());
  EXPECT_EQ(a.stale_advertisers(), b.stale_advertisers());
  EXPECT_EQ(a.confirm_droppers(), b.confirm_droppers());
  ASSERT_EQ(a.storm_queries().size(), b.storm_queries().size());
  for (std::size_t i = 0; i < a.storm_queries().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.storm_queries()[i].at, b.storm_queries()[i].at);
    EXPECT_EQ(a.storm_queries()[i].node, b.storm_queries()[i].node);
    EXPECT_EQ(a.storm_queries()[i].term, b.storm_queries()[i].term);
  }
  // Different seeds must pick different rosters (sanity: the seed is
  // actually wired into the adversary stream).
  const FaultPlan c = build(byzantine_cfg(), 8);
  EXPECT_NE(a.polluters(), c.polluters());
}

TEST(FaultPlanAdversarial, ArmingRolesNeverPerturbsCrashSchedule) {
  // The adversary roster draws from its own salted RNG stream, so adding
  // Byzantine roles to an existing preset must leave its crash/burst/
  // partition schedule bit-identical.
  FaultConfig base;
  base.crash_fraction = 0.10;
  base.bursts = 2;
  base.partitions = 1;
  FaultConfig armed = base;
  armed.polluter_fraction = 0.20;
  armed.storms = 2;
  const FaultPlan p0 = build(base);
  const FaultPlan p1 = build(armed);
  ASSERT_EQ(p0.crashes().size(), p1.crashes().size());
  for (std::size_t i = 0; i < p0.crashes().size(); ++i) {
    EXPECT_EQ(p0.crashes()[i].node, p1.crashes()[i].node);
    EXPECT_DOUBLE_EQ(p0.crashes()[i].at, p1.crashes()[i].at);
  }
  ASSERT_EQ(p0.bursts().size(), p1.bursts().size());
  for (std::size_t i = 0; i < p0.bursts().size(); ++i) {
    EXPECT_DOUBLE_EQ(p0.bursts()[i].begin, p1.bursts()[i].begin);
  }
  ASSERT_EQ(p0.partitions().size(), p1.partitions().size());
  for (std::size_t i = 0; i < p0.partitions().size(); ++i) {
    EXPECT_EQ(p0.partitions()[i].domains, p1.partitions()[i].domains);
  }
}

TEST(FaultPlanAdversarial, ChurnedNodesNeverGetRoles) {
  // Every role must come from the nodes the trace leaves alone (same
  // exclusion rule as crash candidates).
  const auto churned = churned_by_stream();
  const FaultPlan plan = build(byzantine_cfg(), 7, churned);
  for (const auto roster : {&plan.polluters(), &plan.stale_advertisers(),
                            &plan.confirm_droppers()}) {
    EXPECT_FALSE(roster->empty());
    for (NodeId n : *roster) {
      EXPECT_FALSE(churned[n]) << "role assigned to a trace-churned node";
    }
  }
}

TEST(FaultPlanAdversarial, EventSpanAndChurnBitmapBuildsAgree) {
  // A run hands the planner the churn bitmap its world's build pass
  // recorded, then replays the stream. The bitmap reduced from the
  // replayed events must be that same set, so both build the same plan.
  auto cfg = harness::ExperimentConfig::make(harness::Preset::kSmall,
                                             harness::TopologyKind::kCrawled,
                                             5);
  cfg.content.initial_nodes = kNodes;
  cfg.content.joiner_nodes = 20;
  cfg.trace.num_queries = 400;
  cfg.trace.joins = 20;
  cfg.trace.leaves = 60;
  const auto world = harness::build_world(cfg);
  std::vector<std::uint8_t> replayed(kNodes, 0);
  trace::StreamingTraceGenerator gen(world.model, cfg.trace,
                                     world.streaming.rng,
                                     world.streaming.mint_base);
  trace::TraceEvent ev;
  while (gen.next(ev)) mark_churn(ev, replayed);
  EXPECT_EQ(replayed, world.streaming.churned);

  const FaultPlan a = build(byzantine_cfg(), 7, replayed);
  const FaultPlan b = build(byzantine_cfg(), 7, world.streaming.churned);
  EXPECT_EQ(a.polluters(), b.polluters());
  EXPECT_EQ(a.stale_advertisers(), b.stale_advertisers());
  EXPECT_EQ(a.confirm_droppers(), b.confirm_droppers());
  ASSERT_EQ(a.crashes().size(), b.crashes().size());
  for (std::size_t i = 0; i < a.crashes().size(); ++i) {
    EXPECT_EQ(a.crashes()[i].node, b.crashes()[i].node);
  }
}

TEST(FaultPlanAdversarial, StormScheduleLandsInWindowAndIsSorted) {
  FaultConfig cfg;
  cfg.storms = 2;
  cfg.storm_duration = 30.0;
  cfg.storm_emitters = 8;
  cfg.storm_queries_per_emitter = 5;
  cfg.storm_hot_terms = 4;
  const FaultPlan plan = build(cfg);
  ASSERT_EQ(plan.storms().size(), 2u);
  for (const auto& s : plan.storms()) {
    EXPECT_GE(s.begin, kStart);
    EXPECT_LT(s.begin, kEnd);
    EXPECT_DOUBLE_EQ(s.end, s.begin + 30.0);
  }
  ASSERT_EQ(plan.storm_queries().size(), 2u * 8u * 5u);
  for (std::size_t i = 0; i < plan.storm_queries().size(); ++i) {
    const auto& q = plan.storm_queries()[i];
    EXPECT_LT(q.node, kNodes);
    EXPECT_LT(q.term, cfg.storm_hot_terms);
    // Every query falls inside one of the storm windows.
    bool inside = false;
    for (const auto& s : plan.storms()) {
      inside = inside || (q.at >= s.begin && q.at < s.end);
    }
    EXPECT_TRUE(inside) << "storm query outside every storm window";
    if (i > 0) {
      const auto& p = plan.storm_queries()[i - 1];
      EXPECT_TRUE(p.at < q.at ||
                  (p.at == q.at &&
                   (p.node < q.node ||
                    (p.node == q.node && p.term <= q.term))))
          << "storm schedule not sorted by (at, node, term)";
    }
  }
  EXPECT_DOUBLE_EQ(plan.first_fault_time(),
                   std::min(plan.storms().front().begin,
                            plan.storm_queries().front().at));
  EXPECT_FALSE(plan.empty());
}

}  // namespace
}  // namespace asap::faults
