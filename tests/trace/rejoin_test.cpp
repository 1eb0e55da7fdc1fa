// Rejoin (session churn) model tests on a drained StreamingTraceGenerator:
// departed nodes return with their content intact, and the generator keeps
// the trace consistent.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "drained_trace.hpp"
#include "trace/live_content.hpp"
#include "trace/streaming_trace_gen.hpp"

namespace asap::trace {
namespace {

ContentModelParams model_params() {
  ContentModelParams p;
  p.initial_nodes = 400;
  p.joiner_nodes = 40;
  return p;
}

TraceParams churny_params() {
  TraceParams p;
  p.num_queries = 1'200;
  p.joins = 30;
  p.leaves = 60;
  p.rejoin_fraction = 1.0;  // every leaver returns
  p.mean_offline = 20.0;
  return p;
}

TEST(Rejoin, EveryLeaverEventuallyRejoinsWithinTrace) {
  Rng rng(31);
  auto model = ContentModel::build(model_params(), rng);
  const auto drained = drain(model, churny_params(), Rng(32));
  EXPECT_GT(drained.num_rejoins, 0u);
  // With mean offline 20 s and a ~150 s trace, most leavers return.
  EXPECT_GE(drained.num_rejoins, drained.num_leaves / 2);
  EXPECT_LE(drained.num_rejoins, drained.num_leaves);
}

TEST(Rejoin, RejoinersWereOfflineAndKeepTheirDocs) {
  Rng rng(33);
  auto model = ContentModel::build(model_params(), rng);
  const auto drained = drain(model, churny_params(), Rng(34));

  LiveContent live(model);
  std::set<NodeId> offline;
  for (const auto& ev : drained.events) {
    if (ev.type == TraceEventType::kRejoin) {
      EXPECT_FALSE(live.online(ev.node)) << "rejoin of an online node";
      EXPECT_TRUE(offline.count(ev.node)) << "rejoin without a leave";
      const auto docs_before = live.docs(ev.node).size();
      live.apply(ev, model);
      EXPECT_TRUE(live.online(ev.node));
      EXPECT_EQ(live.docs(ev.node).size(), docs_before)
          << "rejoin must not change content";
      offline.erase(ev.node);
      continue;
    }
    if (ev.type == TraceEventType::kLeave) offline.insert(ev.node);
    if (ev.type == TraceEventType::kJoin) offline.erase(ev.node);
    live.apply(ev, model);
  }
}

TEST(Rejoin, QueriesCanTargetRejoinedContent) {
  // With every leaver rejoining quickly, the generator may again pick
  // their documents as query targets; the ground-truth invariant (a live
  // match exists at issue time) must still hold throughout.
  Rng rng(35);
  auto model = ContentModel::build(model_params(), rng);
  const auto drained = drain(model, churny_params(), Rng(36));

  LiveContent live(model);
  ContentIndex index(model, live);
  for (const auto& ev : drained.events) {
    if (ev.type == TraceEventType::kQuery) {
      auto matches = index.matching_nodes(ev.term_span(), live, model);
      matches.erase(std::remove(matches.begin(), matches.end(), ev.node),
                    matches.end());
      ASSERT_FALSE(matches.empty()) << "query at " << ev.time;
    }
    live.apply(ev, model);
    index.apply(ev, model);
  }
}

TEST(Rejoin, DisabledByDefaultFractionZero) {
  Rng rng(37);
  auto model = ContentModel::build(model_params(), rng);
  TraceParams p = churny_params();
  p.rejoin_fraction = 0.0;
  const auto drained = drain(model, p, Rng(38));
  EXPECT_EQ(drained.num_rejoins, 0u);
}

TEST(Rejoin, RejectsBadParams) {
  Rng rng(39);
  auto model = ContentModel::build(model_params(), rng);
  TraceParams p = churny_params();
  p.rejoin_fraction = 1.5;
  const Rng gen_rng(40);
  EXPECT_THROW(StreamingTraceGenerator(model, p, gen_rng), ConfigError);
  p = churny_params();
  p.mean_offline = 0.0;
  EXPECT_THROW(StreamingTraceGenerator(model, p, gen_rng), ConfigError);
}

}  // namespace
}  // namespace asap::trace
