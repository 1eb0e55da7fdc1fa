// Trace-generator contracts (paper §IV-B), checked on a drained
// StreamingTraceGenerator: counts, ordering, arrival rate, a live match for
// every query, interested online requesters, and consistent churn.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "drained_trace.hpp"
#include "trace/live_content.hpp"
#include "trace/streaming_trace_gen.hpp"

namespace asap::trace {
namespace {

ContentModelParams model_params() {
  ContentModelParams p;
  p.initial_nodes = 500;
  p.joiner_nodes = 50;
  return p;
}

TraceParams trace_params() {
  TraceParams p;
  p.num_queries = 1'500;
  p.joins = 40;
  p.leaves = 40;
  return p;
}

class TraceGenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(21);
    model_ = new ContentModel(ContentModel::build(model_params(), rng));
    trace_ = new DrainedTrace(drain(*model_, trace_params(), Rng(22)));
  }
  static void TearDownTestSuite() {
    delete trace_;
    delete model_;
  }
  static ContentModel* model_;
  static DrainedTrace* trace_;
};

ContentModel* TraceGenTest::model_ = nullptr;
DrainedTrace* TraceGenTest::trace_ = nullptr;

TEST_F(TraceGenTest, EventCountsMatchParams) {
  EXPECT_EQ(trace_->num_queries, trace_params().num_queries);
  EXPECT_EQ(trace_->num_joins, trace_params().joins);
  EXPECT_LE(trace_->num_leaves, trace_params().leaves);
  // ~10% of queries are followed by a content change.
  EXPECT_NEAR(static_cast<double>(trace_->num_changes),
              0.1 * trace_params().num_queries,
              0.04 * trace_params().num_queries);
}

TEST_F(TraceGenTest, EventsAreTimeOrdered) {
  for (std::size_t i = 1; i < trace_->events.size(); ++i) {
    EXPECT_LE(trace_->events[i - 1].time, trace_->events[i].time);
  }
  EXPECT_DOUBLE_EQ(trace_->horizon, trace_->events.back().time);
}

TEST_F(TraceGenTest, ArrivalRateApproximatesPoissonLambda) {
  // 1500 queries at λ=8/s should span ~187 s.
  const double expected = trace_params().num_queries /
                          trace_params().arrival_rate;
  EXPECT_NEAR(trace_->horizon, expected, expected * 0.15);
}

TEST_F(TraceGenTest, EveryQueryHasALiveMatchAtIssueTime) {
  // Replay the trace; at each query, the ground-truth index must report at
  // least one matching online node other than the requester (§V-A).
  LiveContent live(*model_);
  ContentIndex index(*model_, live);
  for (const auto& ev : trace_->events) {
    if (ev.type == TraceEventType::kQuery) {
      ASSERT_GE(ev.num_terms, 1u);
      auto matches = index.matching_nodes(ev.term_span(), live, *model_);
      matches.erase(std::remove(matches.begin(), matches.end(), ev.node),
                    matches.end());
      ASSERT_FALSE(matches.empty())
          << "query at t=" << ev.time << " has no live match";
    }
    live.apply(ev, *model_);
    index.apply(ev, *model_);
  }
}

TEST_F(TraceGenTest, RequestersAreOnlineAndInterested) {
  LiveContent live(*model_);
  for (const auto& ev : trace_->events) {
    if (ev.type == TraceEventType::kQuery) {
      EXPECT_TRUE(live.online(ev.node));
      // A peer only asks for documents in classes it is interested in.
      const auto& ints = model_->interests(ev.node);
      const TopicId cls = model_->doc(ev.doc).topic;
      EXPECT_TRUE(std::find(ints.begin(), ints.end(), cls) != ints.end());
    }
    live.apply(ev, *model_);
  }
}

TEST_F(TraceGenTest, QueryTermsComeFromTargetDocument) {
  for (const auto& ev : trace_->events) {
    if (ev.type != TraceEventType::kQuery) continue;
    const auto& kws = model_->doc(ev.doc).keywords;
    for (KeywordId t : ev.term_span()) {
      EXPECT_TRUE(std::find(kws.begin(), kws.end(), t) != kws.end());
    }
    // Terms are distinct.
    const auto span = ev.term_span();
    for (std::size_t i = 0; i < span.size(); ++i) {
      for (std::size_t j = i + 1; j < span.size(); ++j) {
        EXPECT_NE(span[i], span[j]);
      }
    }
  }
}

TEST_F(TraceGenTest, JoinsUseSequentialJoinerSlots) {
  NodeId expected = model_params().initial_nodes;
  for (const auto& ev : trace_->events) {
    if (ev.type == TraceEventType::kJoin) {
      EXPECT_EQ(ev.node, expected);
      ++expected;
    }
  }
}

TEST_F(TraceGenTest, LeavesTargetOnlineNodes) {
  LiveContent live(*model_);
  for (const auto& ev : trace_->events) {
    if (ev.type == TraceEventType::kLeave) {
      EXPECT_TRUE(live.online(ev.node));
    }
    live.apply(ev, *model_);
  }
}

TEST_F(TraceGenTest, RemovalsTargetHeldDocuments) {
  LiveContent live(*model_);
  for (const auto& ev : trace_->events) {
    if (ev.type == TraceEventType::kRemoveDoc) {
      EXPECT_TRUE(live.has_doc(ev.node, ev.doc));
    }
    live.apply(ev, *model_);
  }
}

TEST(TraceGenValidation, RejectsBadParams) {
  Rng rng(1);
  auto model = ContentModel::build(model_params(), rng);
  TraceParams p = trace_params();
  p.joins = 10'000;  // more than joiner slots
  const Rng rng2(2);
  EXPECT_THROW(StreamingTraceGenerator(model, p, rng2), ConfigError);
  p = trace_params();
  p.num_queries = 0;
  EXPECT_THROW(StreamingTraceGenerator(model, p, rng2), ConfigError);
}

TEST(TraceGenValidation, GenerateIsSingleUse) {
  // A generator yields its stream once; an exhausted one stays exhausted.
  Rng rng(3);
  auto model = ContentModel::build(model_params(), rng);
  TraceParams p = trace_params();
  p.num_queries = 50;
  p.joins = 0;
  p.leaves = 0;
  StreamingTraceGenerator gen(model, p, Rng(4));
  TraceEvent ev;
  std::uint32_t events = 0;
  while (gen.next(ev)) ++events;
  EXPECT_GE(events, p.num_queries);
  EXPECT_FALSE(gen.next(ev));
  EXPECT_FALSE(gen.next(ev));
  EXPECT_EQ(gen.num_queries(), p.num_queries);
}

TEST(TraceGenDeterminism, SameSeedsSameTrace) {
  Rng ra(5), rb(5);
  auto ma = ContentModel::build(model_params(), ra);
  auto mb = ContentModel::build(model_params(), rb);
  TraceParams p = trace_params();
  p.num_queries = 300;
  const auto ta = drain(ma, p, Rng(6));
  const auto tb = drain(mb, p, Rng(6));
  ASSERT_EQ(ta.events.size(), tb.events.size());
  for (std::size_t i = 0; i < ta.events.size(); ++i) {
    EXPECT_EQ(ta.events[i].type, tb.events[i].type);
    EXPECT_EQ(ta.events[i].node, tb.events[i].node);
    EXPECT_EQ(ta.events[i].doc, tb.events[i].doc);
    EXPECT_DOUBLE_EQ(ta.events[i].time, tb.events[i].time);
  }
}

}  // namespace
}  // namespace asap::trace
