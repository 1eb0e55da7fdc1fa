// StreamingTraceGenerator contracts:
//   * build mode emits exactly the stream the former materializing
//     generator recorded — pinned by event count, counters, horizon, an
//     FNV-1a hash over every event and the final RNG state — at a size
//     with real churn, rejoins and mid-trace mints;
//   * replay mode re-derives that identical stream against the *const*
//     post-build model (mints resolve to the pre-minted ids), never
//     mutating it;
//   * the golden-metrics harness gate (tier 1) separately pins this whole
//     pipeline against artifacts produced by the historical materializing
//     generator, so these tests plus that gate close the loop.
#include "trace/streaming_trace_gen.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "trace/content_model.hpp"

namespace asap::trace {
namespace {

ContentModelParams small_model_params() {
  auto p = ContentModelParams::small();
  p.initial_nodes = 1'000;
  p.joiner_nodes = 100;
  return p;
}

TraceParams busy_trace_params() {
  TraceParams p;
  p.num_queries = 2'000;
  p.joins = 80;
  p.leaves = 80;
  p.rejoin_fraction = 0.5;
  p.content_change_fraction = 0.2;  // plenty of mints and removals
  return p;
}

void expect_same_event(const TraceEvent& a, const TraceEvent& b, int idx) {
  ASSERT_EQ(a.time, b.time) << "event " << idx;  // exact: same computation
  ASSERT_EQ(a.type, b.type) << "event " << idx;
  ASSERT_EQ(a.node, b.node) << "event " << idx;
  ASSERT_EQ(a.doc, b.doc) << "event " << idx;
  ASSERT_EQ(a.num_terms, b.num_terms) << "event " << idx;
  for (std::uint8_t t = 0; t < a.num_terms; ++t) {
    ASSERT_EQ(a.terms[t], b.terms[t]) << "event " << idx << " term "
                                      << static_cast<int>(t);
  }
}

/// FNV-1a over every field of every event, byte by byte.
std::uint64_t stream_hash(const std::vector<TraceEvent>& events) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& e : events) {
    mix(std::bit_cast<std::uint64_t>(e.time));
    mix(static_cast<std::uint64_t>(e.type));
    mix(e.node);
    mix(e.doc);
    mix(e.num_terms);
    for (std::uint8_t t = 0; t < e.num_terms; ++t) mix(e.terms[t]);
  }
  return h;
}

TEST(StreamingTraceGenerator, BuildModeMatchesMaterializingFacade) {
  // The pins were recorded from the former materializing generator before
  // it was deleted; build mode must still emit that stream bit for bit.
  Rng content(99);
  auto model = ContentModel::build(small_model_params(), content);
  StreamingTraceGenerator stream(model, busy_trace_params(), Rng(1234));
  std::vector<TraceEvent> events;
  TraceEvent ev;
  while (stream.next(ev)) events.push_back(ev);

  ASSERT_GT(stream.num_rejoins(), 0u);  // the busy params exercise rejoins
  EXPECT_EQ(events.size(), 2'613u);
  EXPECT_EQ(stream.num_queries(), 2'000u);
  EXPECT_EQ(stream.num_changes(), 428u);
  EXPECT_EQ(stream.num_joins(), 80u);
  EXPECT_EQ(stream.num_leaves(), 80u);
  EXPECT_EQ(stream.num_rejoins(), 25u);
  EXPECT_EQ(stream.last_event_time(), 248.17750989107898);
  EXPECT_EQ(model.num_docs(), 16'439u);  // the same mints landed
  EXPECT_EQ(stream_hash(events), 0x29f5b2c35feab3dfULL);
  Rng stream_final = stream.rng_state();
  EXPECT_EQ(stream_final.next_u64(), 0xe26ada3cfb516abbULL);
}

TEST(StreamingTraceGenerator, ReplayModeReproducesBuildStreamAgainstConstModel) {
  const auto mp = small_model_params();
  const auto tp = busy_trace_params();

  Rng content(7);
  auto model = ContentModel::build(mp, content);
  const auto mint_base = static_cast<DocId>(model.num_docs());

  // Build pass: mutates the model, records the stream.
  const Rng trace_rng(42);
  std::vector<TraceEvent> built;
  std::uint64_t build_final = 0;
  {
    StreamingTraceGenerator gen(model, tp, trace_rng);
    TraceEvent ev;
    while (gen.next(ev)) built.push_back(ev);
    Rng fin = gen.rng_state();
    build_final = fin.next_u64();
  }
  ASSERT_GT(model.num_docs(), mint_base);  // mid-trace mints happened

  // Replay pass: same initial RNG, const model, pre-minted ids.
  const ContentModel& frozen = model;
  const auto docs_before = frozen.num_docs();
  StreamingTraceGenerator replay(frozen, tp, trace_rng, mint_base);
  std::size_t idx = 0;
  TraceEvent ev;
  while (replay.next(ev)) {
    ASSERT_LT(idx, built.size());
    expect_same_event(built[idx], ev, static_cast<int>(idx));
    ++idx;
  }
  EXPECT_EQ(idx, built.size());
  EXPECT_EQ(frozen.num_docs(), docs_before);  // replay never mutates
  Rng fin = replay.rng_state();
  EXPECT_EQ(fin.next_u64(), build_final);
}

TEST(StreamingTraceGenerator, ReplayIsRepeatable) {
  // Many replays of one immutable model must all see the same stream —
  // the property the matrix runner's shared-World cells rely on.
  auto mp = small_model_params();
  mp.initial_nodes = 300;
  auto tp = busy_trace_params();
  tp.num_queries = 400;
  tp.joins = 20;
  tp.leaves = 20;

  Rng content(15);
  auto model = ContentModel::build(mp, content);
  const auto mint_base = static_cast<DocId>(model.num_docs());
  const Rng trace_rng(5);
  {
    StreamingTraceGenerator build(model, tp, trace_rng);
    TraceEvent ev;
    while (build.next(ev)) {
    }
  }

  const ContentModel& frozen = model;
  std::vector<TraceEvent> first;
  for (int round = 0; round < 3; ++round) {
    StreamingTraceGenerator replay(frozen, tp, trace_rng, mint_base);
    std::size_t idx = 0;
    TraceEvent ev;
    while (replay.next(ev)) {
      if (round == 0) {
        first.push_back(ev);
      } else {
        ASSERT_LT(idx, first.size());
        expect_same_event(first[idx], ev, static_cast<int>(idx));
      }
      ++idx;
    }
    if (round > 0) {
      EXPECT_EQ(idx, first.size());
    }
  }
}

TEST(StreamingTraceGenerator, ResidentStateIsBoundedByLiveNotEvents) {
  // The generator's resident footprint tracks live nodes/documents, not
  // emitted events: a 4x longer trace over the same population must not
  // grow memory 4x (the whole point of streaming synthesis).
  auto mp = small_model_params();
  auto tp = busy_trace_params();
  tp.joins = 40;
  tp.leaves = 40;

  const auto run = [&](std::uint32_t queries) {
    Rng content(33);
    auto model = ContentModel::build(mp, content);
    auto p = tp;
    p.num_queries = queries;
    Rng trace_rng(8);
    StreamingTraceGenerator gen(model, p, trace_rng);
    TraceEvent ev;
    std::uint64_t peak = 0;
    while (gen.next(ev)) peak = std::max(peak, gen.memory_bytes());
    return peak;
  };

  const auto short_run = run(1'000);
  const auto long_run = run(4'000);
  // Mid-trace additions legitimately grow the instance pools a little;
  // 4x the events must stay well under 2x the footprint.
  EXPECT_LT(static_cast<double>(long_run),
            2.0 * static_cast<double>(short_run));
}

}  // namespace
}  // namespace asap::trace
