#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "asap/ad_cache.hpp"
#include "asap/advertiser.hpp"
#include "bloom/hashed_query.hpp"
#include "net/transit_stub.hpp"
#include "overlay/overlay.hpp"
#include "search/context.hpp"
#include "search/propagation.hpp"
#include "sim/bandwidth.hpp"
#include "sim/engine.hpp"
#include "trace/content_model.hpp"
#include "trace/live_content.hpp"
#include "trace/streaming_trace_gen.hpp"

namespace perfbench {

namespace ads = asap::ads;
namespace bloom = asap::bloom;
namespace harness = asap::harness;
namespace search = asap::search;
namespace sim = asap::sim;
namespace trace = asap::trace;
using asap::NodeId;
using asap::Rng;
using asap::Seconds;

int SpanLog::begin(std::string name, int parent) {
  spans_.push_back({std::move(name), parent, now_ns(), 0, 0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id, std::uint64_t ops) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  spans_[static_cast<std::size_t>(id)].ops = ops;
}

double SpanLog::seconds(int id) const {
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

namespace {

// Work bounds. Per-op timings use at most kTimedOps operations so a probe
// takes well under a second per layer; the put probe replays at most
// kMaxVisits ad-walk arrivals, which covers the whole warm-up of the small
// preset and bounds the 100k world.
constexpr std::size_t kTimedOps = 2'000'000;
constexpr std::size_t kMaxVisits = 12'000'000;
constexpr std::size_t kMaxQueries = 2'000;
constexpr std::size_t kMaxMatchPairs = 2'000'000;
constexpr std::uint64_t kMinEngineEvents = 10'000;

// Independent RNG streams per probe, all derived from the world seed.
constexpr std::uint64_t kAdWalkSalt = 0xA5A5'0001ULL;
constexpr std::uint64_t kPutSalt = 0xA5A5'0002ULL;
constexpr std::uint64_t kFloodSalt = 0xA5A5'0003ULL;
constexpr std::uint64_t kEngineSalt = 0xA5A5'0004ULL;

Seconds horizon_of(const harness::World& w) {
  return w.cfg.warmup + w.trace.horizon + 30.0;
}

double ns_per_op(double seconds, std::uint64_t ops) {
  return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Per-run mutable state for kernels, built from the World the same way
/// run_experiment builds it, but owned by the probe.
struct ProbeCtx {
  ProbeCtx(const harness::World& w, std::uint64_t salt)
      : ov(w.base_overlay),
        live(w.model),
        index(w.model, live),
        ledger(horizon_of(w)),
        rng(w.cfg.seed ^ salt),
        ctx(ov, w.phys, w.node_phys, w.model, live, index, engine, ledger,
            w.cfg.sizes, rng) {}

  asap::overlay::Overlay ov;
  trace::LiveContent live;
  trace::ContentIndex index;
  sim::Engine engine;
  sim::BandwidthLedger ledger;
  Rng rng;
  search::Ctx ctx;
};

/// Calls fn(event) for each trace event in order until fn returns false.
template <typename Fn>
void for_each_event(const harness::World& w, Fn&& fn) {
  if (w.streaming.enabled) {
    trace::StreamingTraceGenerator gen(w.model, w.cfg.trace, w.streaming.rng,
                                       w.streaming.mint_base);
    trace::TraceEvent ev;
    while (gen.next(ev)) {
      if (!fn(ev)) return;
    }
    return;
  }
  for (const auto& ev : w.trace.events) {
    if (!fn(ev)) return;
  }
}

/// The overlay construction of harness/world.cpp, which that file keeps private.
asap::overlay::Overlay build_overlay(const harness::ExperimentConfig& cfg,
                                     std::uint32_t nodes, Rng& rng) {
  using asap::overlay::Overlay;
  switch (cfg.topology) {
    case harness::TopologyKind::kRandom:
      return Overlay::random(nodes, cfg.random_avg_degree, rng);
    case harness::TopologyKind::kPowerlaw:
      return Overlay::powerlaw(nodes, cfg.powerlaw_avg_degree,
                               cfg.powerlaw_alpha, rng);
    case harness::TopologyKind::kCrawled:
      break;
  }
  return Overlay::crawled_like(nodes, cfg.crawled_avg_degree, rng);
}

// --- world construction -------------------------------------------------------

/// Rebuilds the World stage by stage with build_world's RNG forks, timing
/// each stage, and checks each stage reproduces the World's.
void probe_setup(const harness::World& world, SpanLog& log,
                 ProbeReport& out) {
  const auto& cfg = world.cfg;
  const int top = log.begin("setup");
  Rng master(cfg.seed);
  Rng phys_rng = master.fork();
  Rng overlay_rng = master.fork();
  Rng content_rng = master.fork();
  Rng trace_rng = master.fork();

  int s = log.begin("net.generate", top);
  const auto phys = asap::net::TransitStubNetwork::generate(cfg.phys, phys_rng);
  log.end(s, 1);
  out.put("net.generate_s", log.seconds(s));
  out.check("net.generate reproduces the world's network",
            phys.num_nodes() == world.phys.num_nodes() &&
                phys.num_links() == world.phys.num_links());

  s = log.begin("trace.content_build", top);
  auto model = trace::ContentModel::build(cfg.content, content_rng);
  log.end(s, 1);
  out.put("trace.content_build_s", log.seconds(s));

  s = log.begin("overlay.build", top);
  const auto ov =
      build_overlay(cfg, model.params().initial_nodes, overlay_rng);
  log.end(s, ov.num_nodes());
  out.put("overlay.build_s", log.seconds(s));
  bool same_overlay = ov.num_nodes() == world.base_overlay.num_nodes();
  for (NodeId n = 0; same_overlay && n < ov.num_nodes(); ++n) {
    same_overlay = std::ranges::equal(ov.neighbors(n),
                                      world.base_overlay.neighbors(n));
  }
  out.check("overlay.build reproduces the world's overlay", same_overlay);
  out.put("overlay.bytes_per_node",
          static_cast<double>(world.base_overlay.memory_bytes()) /
              world.base_overlay.num_nodes());

  // Build mode, as build_world's streaming pre-pass runs it.
  s = log.begin("trace.next", top);
  trace::StreamingTraceGenerator gen(model, cfg.trace, trace_rng);
  trace::TraceEvent ev;
  std::uint64_t events = 0;
  while (gen.next(ev)) ++events;
  log.end(s, events);
  out.put("trace.next_ns", ns_per_op(log.seconds(s), events));
  out.check("trace generator reproduces the world's trace",
            gen.num_queries() == world.trace.num_queries &&
                gen.num_joins() == world.trace.num_joins &&
                gen.num_rejoins() == world.trace.num_rejoins &&
                model.num_docs() == world.model.num_docs());
  log.end(top, 1);
}

// --- event engine ---------------------------------------------------------

void probe_engine(const harness::World& world, std::uint64_t engine_events,
                  SpanLog& log, ProbeReport& out) {
  const std::uint64_t n = std::max(engine_events, kMinEngineEvents);
  const Seconds horizon = horizon_of(world);
  const std::uint32_t slots = world.model.total_node_slots();
  Rng rng(world.cfg.seed ^ kEngineSalt);
  sim::Engine engine;
  std::uint64_t fired = 0;
  const int s = log.begin("sim.engine");
  for (std::uint64_t i = 0; i < n; ++i) {
    engine.schedule_at(rng.uniform(0.0, horizon),
                       static_cast<NodeId>(i % slots), [&fired] { ++fired; });
  }
  engine.run_until(horizon);
  log.end(s, n);
  out.put("sim.engine_event_ns", ns_per_op(log.seconds(s), n));
  out.put("sim.engine_events", static_cast<double>(engine_events));
  out.check("engine executes every scheduled event",
            fired == n && engine.executed() == n);
}

// --- flood kernel ---------------------------------------------------------

std::vector<trace::TraceEvent> first_queries(const harness::World& world) {
  std::vector<trace::TraceEvent> qs;
  for_each_event(world, [&](const trace::TraceEvent& ev) {
    if (ev.type == trace::TraceEventType::kQuery) qs.push_back(ev);
    return qs.size() < kMaxQueries;
  });
  return qs;
}

void probe_flood(const harness::World& world,
                 const std::vector<trace::TraceEvent>& queries, SpanLog& log,
                 ProbeReport& out) {
  ProbeCtx pc(world, kFloodSalt);
  const auto params = harness::default_baseline_params(
      harness::AlgoKind::kFlooding, world.cfg.preset);
  const auto noop = [](NodeId, Seconds, std::uint32_t) {
    return search::VisitAction::kContinue;
  };
  std::uint64_t messages = 0;
  std::uint64_t floods = 0;
  bool reach_ok = true;
  const int s = log.begin("search.flood");
  for (const auto& q : queries) {
    if (messages >= kTimedOps) break;
    const auto st =
        search::flood(pc.ctx, q.node, world.cfg.warmup + q.time,
                      params.flood_ttl, world.cfg.sizes.query,
                      sim::Traffic::kQuery, noop);
    messages += st.messages;
    floods += st.messages > 0 ? 1 : 0;
    reach_ok = reach_ok && st.unique_nodes <= pc.ov.num_nodes();
  }
  log.end(s, messages);
  out.put("search.flood_msg_ns", ns_per_op(log.seconds(s), messages));
  out.check("flood probe sends messages and stays within the overlay",
            floods > 0 && reach_ok &&
                pc.ledger.total(sim::Traffic::kQuery) ==
                    messages * world.cfg.sizes.query);
}

// --- ASAP ad dissemination, cache and Bloom probes -------------------------

/// One full-ad delivery the put probe re-enacts.
struct Delivery {
  NodeId src = asap::kInvalidNode;
  Seconds start = 0.0;
  double scale = 1.0;
  ads::AdPayloadPtr payload;
};

/// One ad-walk arrival. `tag` packs the delivery index with two flags.
struct Visit {
  static constexpr std::uint32_t kFirstHop = 1U << 31;
  static constexpr std::uint32_t kCached = 1U << 30;  // interested, not src
  static constexpr std::uint32_t kIndex = kCached - 1;

  NodeId node;
  std::uint32_t tag;
  float t;

  std::uint32_t delivery() const { return tag & kIndex; }
};

/// Metrics of the ad cache and Bloom layers, which only ASAP algorithms run.
constexpr const char* kAsapOnlyMetrics[] = {
    "asap.put_per_hop",     "asap.topics_overlap_ns",
    "asap.put.insert",      "asap.put.replace",
    "asap.put.revisit",     "asap.revisit_ratio",
    "asap.put_ns",          "bloom.fold_ns",
    "asap.cache_bytes_per_node",
    "asap.collect_matches_ns",
    "bloom.match_ns",       "bloom.prefilter_reject_ratio",
    "asap.on_refresh_ns",
};

std::uint64_t payload_bytes(const ads::AdPayload& p) {
  return sizeof(ads::AdPayload) + p.filter.memory_bytes() +
         p.topics.capacity() * sizeof(asap::TopicId);
}

/// Re-enacts ASAP's full-ad walks on the world. The recorded walks time the
/// random-walk kernel, hop latency and ledger deposits on every workload;
/// with `asap` they also drive the ad cache and Bloom probes.
void probe_ads(const harness::World& world, bool asap,
               const std::vector<trace::TraceEvent>& queries, SpanLog& log,
               ProbeReport& out) {
  const auto& cfg = world.cfg;
  const auto& model = world.model;
  const auto params =
      harness::default_asap_params(harness::AlgoKind::kAsapRw, cfg.preset);
  const std::uint32_t initial = model.params().initial_nodes;
  const std::uint32_t slots = model.total_node_slots();
  ProbeCtx pc(world, kAdWalkSalt);

  // Deliveries: AsapProtocol::warm_up's full ad from every initial sharer
  // at a random instant in the first half of the warm-up window, then the
  // fresh full ad each sharer re-announces when the trace rejoins it.
  std::vector<ads::Advertiser> advs;
  std::vector<std::uint32_t> adv_of(slots, UINT32_MAX);
  std::vector<Delivery> deliveries;
  for (NodeId n = 0; n < initial; ++n) {
    ads::Advertiser adv(n);
    for (asap::DocId d : pc.live.docs(n)) adv.add_document(model.doc(d));
    if (!adv.has_content()) continue;
    const Seconds at = pc.rng.uniform(0.0, cfg.warmup * 0.5);
    deliveries.push_back({n, at, 1.0, adv.publish_full()});
    adv_of[n] = static_cast<std::uint32_t>(advs.size());
    advs.push_back(std::move(adv));
  }
  std::stable_sort(deliveries.begin(), deliveries.end(),
                   [](const Delivery& a, const Delivery& b) {
                     return a.start < b.start;
                   });
  for_each_event(world, [&](const trace::TraceEvent& ev) {
    if (ev.type == trace::TraceEventType::kRejoin &&
        adv_of[ev.node] != UINT32_MAX) {
      deliveries.push_back({ev.node, cfg.warmup + ev.time,
                            params.join_budget_scale,
                            advs[adv_of[ev.node]].publish_full()});
    }
    return true;
  });

  // Walk shape of AsapProtocol::deliver_ad under the RW scheme.
  struct Shape {
    std::uint32_t walkers;
    std::uint64_t per_walker;
  };
  const auto shape_of = [&](const Delivery& d) {
    const auto topics = std::max<std::size_t>(1, d.payload->topics.size());
    const auto budget = std::max<std::uint64_t>(
        params.walkers,
        static_cast<std::uint64_t>(std::llround(
            d.scale * static_cast<double>(topics * params.budget_unit_m0))));
    const auto walkers = std::max<std::uint64_t>(
        params.walkers,
        (budget + params.max_walk_hops - 1) / params.max_walk_hops);
    return Shape{static_cast<std::uint32_t>(walkers),
                 std::max<std::uint64_t>(1, budget / walkers)};
  };

  std::vector<asap::Bytes> msg_bytes;
  for (const Delivery& d : deliveries) {
    msg_bytes.push_back(ads::full_ad_bytes(*d.payload, cfg.sizes));
  }

  // Record every arrival with the protocol's selective-caching test.
  const Rng walk_rng = pc.rng;
  std::vector<Visit> visits;
  std::vector<std::size_t> visits_after;  // cumulative, per delivery
  std::size_t covered = 0;
  for (; covered < deliveries.size() && visits.size() < kMaxVisits;
       ++covered) {
    const Delivery& d = deliveries[covered];
    const Shape sh = shape_of(d);
    const auto idx = static_cast<std::uint32_t>(covered);
    search::random_walk(
        pc.ctx, d.src, d.start, sh.walkers, sh.per_walker,
        msg_bytes[covered], sim::Traffic::kFullAd,
        [&](NodeId v, Seconds t, std::uint32_t hop) {
          std::uint32_t tag = idx;
          if (hop == 1) tag |= Visit::kFirstHop;
          if (v != d.src &&
              ads::topics_overlap(d.payload->topics, model.interests(v))) {
            tag |= Visit::kCached;
          }
          visits.push_back({v, tag, static_cast<float>(t)});
          return search::VisitAction::kContinue;
        });
    visits_after.push_back(visits.size());
  }
  // search.random_walk with a no-op visitor over a prefix of deliveries,
  // from the same RNG state, so the walks are the recorded ones.
  {
    pc.rng = walk_rng;
    const auto noop = [](NodeId, Seconds, std::uint32_t) {
      return search::VisitAction::kContinue;
    };
    std::size_t k = 0;
    while (k < covered && visits_after[k] < kTimedOps) ++k;
    k = std::min(k + 1, covered);
    std::uint64_t hops = 0;
    const int s = log.begin("search.random_walk");
    for (std::size_t i = 0; i < k; ++i) {
      const Delivery& d = deliveries[i];
      const Shape sh = shape_of(d);
      hops += search::random_walk(pc.ctx, d.src, d.start, sh.walkers,
                                  sh.per_walker, msg_bytes[i],
                                  sim::Traffic::kFullAd, noop)
                  .messages;
    }
    log.end(s, hops);
    out.put("search.rw_hop_ns", ns_per_op(log.seconds(s), hops));
    out.check("random-walk replay repeats the recorded walks",
              k > 0 && hops == visits_after[k - 1]);
  }

  const std::size_t timed = std::min(visits.size(), kTimedOps);

  // net.latency over the recorded hops (sender -> arrival).
  {
    double sum = 0.0;
    const int s = log.begin("net.latency");
    for (std::size_t i = 0; i < timed; ++i) {
      const Visit& v = visits[i];
      const NodeId from = (v.tag & Visit::kFirstHop)
                              ? deliveries[v.delivery()].src
                              : visits[i - 1].node;
      sum += world.phys.latency(world.node_phys[from], world.node_phys[v.node]);
    }
    log.end(s, timed);
    out.put("net.latency_ns", ns_per_op(log.seconds(s), timed));
    out.check("hop latencies are positive and finite",
              timed == 0 || (sum > 0.0 && std::isfinite(sum)));
  }

  // sim::BandwidthLedger::deposit at the recorded arrival times.
  {
    sim::BandwidthLedger ledger(horizon_of(world));
    asap::Bytes expect = 0;
    const int s = log.begin("sim.ledger_deposit");
    for (std::size_t i = 0; i < timed; ++i) {
      const asap::Bytes bytes = msg_bytes[visits[i].delivery()];
      ledger.deposit(visits[i].t, sim::Traffic::kFullAd, bytes);
      expect += bytes;
    }
    log.end(s, timed);
    out.put("sim.ledger_deposit_ns", ns_per_op(log.seconds(s), timed));
    out.check("ledger conserves deposited bytes",
              ledger.total(sim::Traffic::kFullAd) == expect);
  }

  if (!asap) {
    for (const char* name : kAsapOnlyMetrics) out.put(name, 0.0);
    return;
  }
  std::vector<std::uint32_t> puts;
  for (std::size_t i = 0; i < visits.size(); ++i) {
    if (visits[i].tag & Visit::kCached) {
      puts.push_back(static_cast<std::uint32_t>(i));
    }
  }
  out.put("asap.put_per_hop", ratio(puts.size(), visits.size()));

  // ads::topics_overlap, the per-hop selective-caching test.
  {
    const auto overlaps = [&](const Visit& v) {
      return ads::topics_overlap(deliveries[v.delivery()].payload->topics,
                                 model.interests(v.node));
    };
    std::uint64_t hits = 0;
    const int s = log.begin("asap.topics_overlap");
    for (std::size_t i = 0; i < timed; ++i) hits += overlaps(visits[i]) ? 1 : 0;
    log.end(s, timed);
    out.put("asap.topics_overlap_ns", ns_per_op(log.seconds(s), timed));
    // The recording pass flagged interested arrivals other than the source.
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < timed; ++i) {
      const Visit& v = visits[i];
      const bool at_src = v.node == deliveries[v.delivery()].src;
      expect += (v.tag & Visit::kCached) || (at_src && overlaps(v)) ? 1 : 0;
    }
    out.check("topics_overlap agrees with the recording pass", hits == expect);
  }

  const auto fresh_caches = [&] {
    std::vector<ads::AdCache> v;
    v.reserve(slots);
    for (std::uint32_t n = 0; n < slots; ++n) {
      v.emplace_back(params.cache_capacity);
    }
    return v;
  };
  // Fingerprint of every cache's source list, to show that the classifying
  // pass and the timed pass leave identical caches.
  const auto fingerprint = [](const std::vector<ads::AdCache>& cs) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const auto& c : cs) {
      for (const NodeId src : c.sources()) h = (h ^ src) * 0x100000001B3ULL;
      h = (h ^ 0xFFFFFFFFULL) * 0x100000001B3ULL;
    }
    return h;
  };

  // The puts on fresh caches, classified by what find() holds first.
  std::uint64_t classified_fp = 0;
  {
    std::vector<ads::AdCache> shadow = fresh_caches();
    Rng rng(cfg.seed ^ kPutSalt);
    std::uint64_t insert = 0, replace = 0, revisit = 0;
    for (const std::uint32_t i : puts) {
      const Visit& v = visits[i];
      const auto& payload = deliveries[v.delivery()].payload;
      const ads::AdCache::Entry* e = shadow[v.node].find(payload->source);
      if (e == nullptr) {
        ++insert;
      } else if (e->ad->version < payload->version) {
        ++replace;
      } else {
        ++revisit;
      }
      shadow[v.node].put(payload, v.t, rng);
    }
    out.put("asap.put.insert", static_cast<double>(insert));
    out.put("asap.put.replace", static_cast<double>(replace));
    out.put("asap.put.revisit", static_cast<double>(revisit));
    out.put("asap.revisit_ratio", ratio(revisit, puts.size()));
    classified_fp = fingerprint(shadow);
  }

  // ads::AdCache::put alone, the same sequence on fresh caches.
  std::vector<ads::AdCache> caches = fresh_caches();
  {
    Rng rng(cfg.seed ^ kPutSalt);
    const int s = log.begin("asap.put");
    for (const std::uint32_t i : puts) {
      const Visit& v = visits[i];
      caches[v.node].put(deliveries[v.delivery()].payload, v.t, rng);
    }
    log.end(s, puts.size());
    out.put("asap.put_ns", ns_per_op(log.seconds(s), puts.size()));
    bool within = true;
    for (const auto& c : caches) within = within && c.size() <= c.capacity();
    out.check("cache sizes never exceed capacity", within);
    out.check("classified puts leave the caches the timed puts left",
              fingerprint(caches) == classified_fp);
  }

  // bloom::BloomFilter::fold, which put() runs when it stores a payload.
  {
    const std::size_t n = std::min(puts.size(), kTimedOps);
    std::vector<std::uint64_t> folds(n);
    const int s = log.begin("bloom.fold");
    for (std::size_t j = 0; j < n; ++j) {
      folds[j] = deliveries[visits[puts[j]].delivery()].payload->filter.fold();
    }
    log.end(s, n);
    out.put("bloom.fold_ns", ns_per_op(log.seconds(s), n));
    bool same = true;
    for (std::size_t j = 0; same && j < n; ++j) {
      std::uint64_t word_or = 0;
      for (const std::uint64_t w :
           deliveries[visits[puts[j]].delivery()].payload->filter.words()) {
        word_or |= w;
      }
      same = folds[j] == word_or;
    }
    out.check("BloomFilter::fold equals the OR of the filter's words", same);
  }

  // Footprint: cache containers plus each distinct payload they share.
  {
    std::uint64_t bytes = 0;
    std::unordered_set<const ads::AdPayload*> seen;
    for (const auto& c : caches) {
      bytes += c.memory_bytes();
      for (const auto& e : c.entries()) {
        if (seen.insert(e.ad.get()).second) bytes += payload_bytes(*e.ad);
      }
    }
    out.put("asap.cache_bytes_per_node", static_cast<double>(bytes) / slots);
  }

  // Query side on the filled caches: hashed scans, Bloom probes, prefilter.
  std::vector<bloom::HashedQuery> hashed;
  hashed.reserve(queries.size());
  for (const auto& q : queries) {
    hashed.emplace_back(q.term_span(), bloom::BloomParams{});
  }
  {
    std::vector<ads::AdPayloadPtr> got;
    std::uint64_t found = 0;
    const int s = log.begin("asap.collect_matches");
    for (std::size_t i = 0; i < queries.size(); ++i) {
      caches[queries[i].node].collect_matches(hashed[i], got);
      found += got.size();
    }
    log.end(s, queries.size());
    out.put("asap.collect_matches_ns",
            ns_per_op(log.seconds(s), queries.size()));
    bool same = true;
    std::vector<ads::AdPayloadPtr> legacy;
    std::uint64_t found_legacy = 0;
    for (std::size_t i = 0; same && i < queries.size(); ++i) {
      caches[queries[i].node].collect_matches(hashed[i], got);
      caches[queries[i].node].collect_matches(queries[i].term_span(), legacy);
      same = got == legacy;
      found_legacy += legacy.size();
    }
    out.check("hashed collect_matches equals the per-term scan",
              same && found == found_legacy);
  }
  {
    struct Pair {
      std::uint32_t query;
      const ads::AdPayload* ad;
      std::uint64_t prefilter;
    };
    std::vector<Pair> pairs;
    for (std::size_t i = 0; i < queries.size() && pairs.size() < kMaxMatchPairs;
         ++i) {
      const auto& c = caches[queries[i].node];
      for (std::size_t j = 0; j < c.size(); ++j) {
        pairs.push_back({static_cast<std::uint32_t>(i), c.entries()[j].ad.get(),
                         c.prefilters()[j]});
      }
    }
    std::uint64_t matched = 0;
    const int s = log.begin("bloom.match");
    for (const Pair& p : pairs) {
      matched += hashed[p.query].matches(p.ad->filter) ? 1 : 0;
    }
    log.end(s, pairs.size());
    out.put("bloom.match_ns", ns_per_op(log.seconds(s), pairs.size()));

    std::uint64_t rejected = 0;
    std::uint64_t matched_per_term = 0;
    bool agree = true;
    bool sound = true;
    for (const Pair& p : pairs) {
      const auto& hq = hashed[p.query];
      const bool m = hq.matches(p.ad->filter);
      bool per_term = true;
      for (const auto kw : hq.terms()) {
        per_term = per_term && p.ad->filter.contains(kw);
      }
      agree = agree && m == per_term;
      matched_per_term += per_term ? 1 : 0;
      const bool reject =
          (p.prefilter & hq.fold_mask_all()) != hq.fold_mask_all();
      rejected += reject ? 1 : 0;
      sound = sound && !(reject && m);
    }
    out.put("bloom.prefilter_reject_ratio", ratio(rejected, pairs.size()));
    out.check("HashedQuery::matches agrees with a per-term BloomFilter test",
              agree && matched == matched_per_term);
    out.check("prefilter never rejects a matching filter", sound);
  }

  // ads::AdCache::on_refresh for the ads the recorded walks delivered.
  {
    const std::size_t n = std::min(puts.size(), kTimedOps);
    std::uint64_t applied = 0;
    const int s = log.begin("asap.on_refresh");
    for (std::size_t j = 0; j < n; ++j) {
      const Visit& v = visits[puts[j]];
      const auto& payload = deliveries[v.delivery()].payload;
      applied += caches[v.node].on_refresh(payload->source, payload->version,
                                           v.t + 1.0) ==
                         ads::UpdateOutcome::kApplied
                     ? 1
                     : 0;
    }
    log.end(s, n);
    out.put("asap.on_refresh_ns", ns_per_op(log.seconds(s), n));
    out.check("refreshes find cached ads", n == 0 || applied > 0);
  }
}

}  // namespace

void run_probes(const harness::World& world, bool asap,
                std::uint64_t engine_events, SpanLog& log, ProbeReport& out) {
  probe_setup(world, log, out);
  probe_engine(world, engine_events, log, out);
  const auto queries = first_queries(world);
  probe_flood(world, queries, log, out);
  probe_ads(world, asap, queries, log, out);
}

}  // namespace perfbench
