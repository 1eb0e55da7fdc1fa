#include "asap/superpeer.hpp"

#include "asap/asap_protocol.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../support/test_world.hpp"

namespace asap::ads {
namespace {

using asap::testing::TestWorld;

SuperpeerParams test_params(search::Scheme s = search::Scheme::kRandomWalk) {
  SuperpeerParams p;
  p.scheme = s;
  p.budget_unit_m0 = 200;  // the 45-superpeer test mesh is tiny
  p.refresh_period = 30.0;
  return p;
}

void warm(TestWorld& w, SuperpeerAsap& algo, Seconds warmup = 120.0) {
  algo.warm_up(warmup);
  w.engine.run_until(warmup);
}

trace::TraceEvent query_event(const TestWorld& w, NodeId requester,
                              NodeId holder, Seconds t) {
  const DocId d = w.live.docs(holder).front();
  const auto& kws = w.model.doc(d).keywords;
  trace::TraceEvent ev;
  ev.type = trace::TraceEventType::kQuery;
  ev.time = t;
  ev.node = requester;
  ev.doc = d;
  ev.num_terms = static_cast<std::uint8_t>(std::min<std::size_t>(3, kws.size()));
  for (std::uint8_t i = 0; i < ev.num_terms; ++i) ev.terms[i] = kws[i];
  return ev;
}

TEST(SuperpeerAsap, HierarchyCoversEveryNode) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params());
  EXPECT_NEAR(algo.num_superpeers(), 0.15 * TestWorld::kNodes,
              0.02 * TestWorld::kNodes);
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    const NodeId proxy = algo.proxy_of(n);
    ASSERT_NE(proxy, kInvalidNode) << "node " << n << " has no proxy";
    EXPECT_TRUE(algo.is_superpeer(proxy));
    if (algo.is_superpeer(n)) {
      EXPECT_EQ(proxy, n);
    }
  }
}

TEST(SuperpeerAsap, SuperpeersAreHighDegreeNodes) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params());
  // Every superpeer's degree must be >= every leaf's degree minus ties.
  std::uint32_t min_sp = UINT32_MAX, max_leaf = 0;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    if (algo.is_superpeer(n)) {
      min_sp = std::min(min_sp, w.overlay.degree(n));
    } else {
      max_leaf = std::max(max_leaf, w.overlay.degree(n));
    }
  }
  EXPECT_GE(min_sp + 1, max_leaf);  // allow a tie boundary
}

TEST(SuperpeerAsap, OnlySuperpeersCacheAds) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params(search::Scheme::kFlooding));
  warm(w, algo);
  EXPECT_GT(algo.counters().full_ads, 0u);
  EXPECT_GT(algo.counters().proxy_uploads, 0u);
  EXPECT_GT(algo.total_cached_ads(), 0u);
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    if (!algo.is_superpeer(n)) {
      EXPECT_EQ(algo.cache(n).size(), 0u) << "leaf " << n << " cached ads";
    }
  }
}

TEST(SuperpeerAsap, LeafSearchSucceedsThroughProxy) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params(search::Scheme::kFlooding));
  warm(w, algo);
  const NodeId holder = w.a_sharer();
  // Pick a leaf requester.
  NodeId leaf = kInvalidNode;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    if (!algo.is_superpeer(n) && n != holder) {
      leaf = n;
      break;
    }
  }
  ASSERT_NE(leaf, kInvalidNode);
  algo.on_trace_event(query_event(w, leaf, holder, 130.0));
  EXPECT_EQ(algo.stats().successes(), 1u);
  EXPECT_GT(algo.counters().proxy_queries, 0u);
  // Response pays the proxy round trip plus the confirmation round trip.
  EXPECT_GT(algo.stats().avg_response_time(),
            2.0 * w.ctx.latency(leaf, algo.proxy_of(leaf)) - 1e-9);
}

TEST(SuperpeerAsap, MemoryConcentratesOnSuperpeers) {
  // Flat ASAP spreads cache entries over every interested node; the
  // superpeer mode concentrates them on ~15% of nodes. Total entries must
  // be far below flat ASAP's (same warm-up, same world).
  TestWorld w1(99), w2(99);
  AsapParams flat;
  flat.scheme = search::Scheme::kFlooding;
  AsapProtocol flat_algo(w1.ctx, flat);
  flat_algo.warm_up(120.0);
  w1.engine.run_until(120.0);
  std::uint64_t flat_total = 0;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    flat_total += flat_algo.cache(n).size();
  }

  SuperpeerAsap sp_algo(w2.ctx, test_params(search::Scheme::kFlooding));
  warm(w2, sp_algo);
  EXPECT_LT(sp_algo.total_cached_ads(), flat_total);
  EXPECT_GT(sp_algo.total_cached_ads(), 0u);
}

TEST(SuperpeerAsap, ContentChangeFlowsThroughProxy) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params());
  warm(w, algo);
  const NodeId sharer = w.a_sharer();
  const auto patches_before = algo.counters().patch_ads;
  Rng mint_rng(5);
  auto& model = const_cast<trace::ContentModel&>(w.model);
  const DocId fresh =
      model.mint_document(w.model.interests(sharer).front(), mint_rng);
  trace::TraceEvent ev;
  ev.type = trace::TraceEventType::kAddDoc;
  ev.time = 130.0;
  ev.node = sharer;
  ev.doc = fresh;
  w.live.apply(ev, w.model);
  algo.on_trace_event(ev);
  EXPECT_EQ(algo.counters().patch_ads, patches_before + 1);
}

TEST(SuperpeerAsap, OfflineProxyTriggersReassignment) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params(search::Scheme::kFlooding));
  warm(w, algo);
  const NodeId holder = w.a_sharer();
  NodeId leaf = kInvalidNode;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    if (!algo.is_superpeer(n) && n != holder) {
      leaf = n;
      break;
    }
  }
  ASSERT_NE(leaf, kInvalidNode);
  const NodeId old_proxy = algo.proxy_of(leaf);
  w.live.set_online(old_proxy, false);
  algo.on_trace_event(query_event(w, leaf, holder, 130.0));
  // The query still completed (through a replacement proxy).
  EXPECT_EQ(algo.stats().total(), 1u);
  EXPECT_NE(algo.proxy_of(leaf), old_proxy);
  w.live.set_online(old_proxy, true);
}

TEST(SuperpeerAsap, NamesFollowScheme) {
  TestWorld w;
  EXPECT_EQ(SuperpeerAsap(w.ctx, test_params(search::Scheme::kFlooding)).name(),
            "sp-asap(fld)");
  EXPECT_EQ(
      SuperpeerAsap(w.ctx, test_params(search::Scheme::kRandomWalk)).name(),
      "sp-asap(rw)");
}

/// One superpeer run on TestWorld: warm-up, one content change, one
/// proxy leave + rejoin, 50 leaf queries, then drain to t = 400.
struct SuperpeerRun {
  std::uint64_t engine_digest = 0;
  std::uint64_t ledger_digest = 0;
  std::uint64_t total = 0;
  std::uint64_t successes = 0;
  double avg_cost_bytes = 0.0;
};

SuperpeerRun run_scenario(search::Scheme scheme) {
  TestWorld w;
  SuperpeerAsap algo(w.ctx, test_params(scheme));
  warm(w, algo);
  std::vector<NodeId> leaves;
  std::vector<NodeId> sharers;
  for (NodeId n = 0; n < TestWorld::kNodes; ++n) {
    if (!algo.is_superpeer(n)) leaves.push_back(n);
    if (!w.live.docs(n).empty()) sharers.push_back(n);
  }
  auto feed = [&](const trace::TraceEvent& ev) {
    w.engine.run_until(ev.time);
    w.live.apply(ev, w.model);
    algo.on_trace_event(ev);
  };

  Rng mint_rng(5);
  auto& model = const_cast<trace::ContentModel&>(w.model);
  trace::TraceEvent change;
  change.type = trace::TraceEventType::kAddDoc;
  change.time = 125.0;
  change.node = sharers.front();
  change.doc = model.mint_document(w.model.interests(change.node).front(),
                                   mint_rng);
  feed(change);

  // The leaver is a sharing superpeer that proxies leaves: while it is
  // away, its leaves re-pick proxies and confirms to it time out.
  NodeId leaver = algo.proxy_of(leaves.front());
  for (const NodeId n : leaves) {
    const NodeId sp = algo.proxy_of(n);
    if (!w.live.docs(sp).empty()) {
      leaver = sp;
      break;
    }
  }
  for (std::size_t i = 0; i < 50; ++i) {
    const Seconds t = 130.0 + 2.0 * static_cast<double>(i);
    if (t == 150.0 || t == 190.0) {
      trace::TraceEvent churn;
      churn.type = t == 150.0 ? trace::TraceEventType::kLeave
                              : trace::TraceEventType::kRejoin;
      churn.time = t;
      churn.node = leaver;
      feed(churn);
    }
    const NodeId requester = leaves[(7 * i) % leaves.size()];
    NodeId holder = sharers[(3 * i + 1) % sharers.size()];
    if (i % 5 == 1 && !w.live.docs(leaver).empty()) holder = leaver;
    if (holder == requester) holder = sharers[(3 * i + 2) % sharers.size()];
    auto ev = query_event(w, requester, holder, t);
    if (i % 5 == 0) {
      // Nobody holds this keyword: a proxy miss that widens to the mesh.
      ev.num_terms = 1;
      ev.terms[0] = 0xFFFFFFF0;
    }
    feed(ev);
  }
  w.engine.run_until(400.0);
  return {w.engine.digest(), w.ledger.digest(), algo.stats().total(),
          algo.stats().successes(), algo.stats().avg_cost_bytes()};
}

// Behavioural pin of the hierarchical mode: engine and ledger digests plus
// the search outcome of a fixed scenario, per mesh dissemination scheme.
// Any change to what the superpeer protocol sends, caches or confirms
// moves these constants.
TEST(SuperpeerDigest, ScenarioIsBitIdenticalPerScheme) {
  struct Pin {
    const char* name;
    search::Scheme scheme;
    SuperpeerRun want;
  };
  const Pin pins[] = {
      {"sp-asap(fld)",
       search::Scheme::kFlooding,
       {0xda68606d88870412ULL, 0x4226cc2170ec8a40ULL, 50, 40,
        508.00000000000006}},
      {"sp-asap(rw)",
       search::Scheme::kRandomWalk,
       {0x5699736d15179db9ULL, 0xe149c330ab39c6a5ULL, 50, 40,
        505.60000000000002}},
      {"sp-asap(gsa)",
       search::Scheme::kGsa,
       {0xda68606d88870412ULL, 0x16563558f16af3aaULL, 50, 40,
        508.00000000000006}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const SuperpeerRun got = run_scenario(pin.scheme);
    EXPECT_EQ(got.engine_digest, pin.want.engine_digest);
    EXPECT_EQ(got.ledger_digest, pin.want.ledger_digest);
    EXPECT_EQ(got.total, pin.want.total);
    EXPECT_EQ(got.successes, pin.want.successes);
    EXPECT_EQ(got.avg_cost_bytes, pin.want.avg_cost_bytes);
  }
}

TEST(SuperpeerAsap, RejectsBadParams) {
  TestWorld w;
  auto p = test_params();
  p.superpeer_fraction = 0.0;
  EXPECT_THROW(SuperpeerAsap(w.ctx, p), ConfigError);
  p = test_params();
  p.budget_unit_m0 = 0;
  EXPECT_THROW(SuperpeerAsap(w.ctx, p), ConfigError);
}

}  // namespace
}  // namespace asap::ads
