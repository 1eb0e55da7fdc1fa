#include "trace/streaming_trace_gen.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace asap::trace {

StreamingTraceGenerator::StreamingTraceGenerator(ContentModel& model,
                                                 const TraceParams& params,
                                                 const Rng& rng)
    : StreamingTraceGenerator(model, &model, params, rng, kInvalidDoc) {}

StreamingTraceGenerator::StreamingTraceGenerator(const ContentModel& model,
                                                 const TraceParams& params,
                                                 const Rng& rng,
                                                 DocId mint_base)
    : StreamingTraceGenerator(model, nullptr, params, rng, mint_base) {}

StreamingTraceGenerator::StreamingTraceGenerator(const ContentModel& model,
                                                 ContentModel* mutable_model,
                                                 const TraceParams& params,
                                                 const Rng& rng,
                                                 DocId mint_base)
    : model_(model),
      mutable_model_(mutable_model),
      params_(params),
      rng_(rng),
      qt_rng_(rng),
      next_mint_(mint_base),
      live_(model) {
  ASAP_REQUIRE(params.num_queries >= 1, "trace needs at least one query");
  ASAP_REQUIRE(params.arrival_rate > 0.0, "arrival rate must be positive");
  ASAP_REQUIRE(params.joins <= model.params().joiner_nodes,
               "more joins than joiner slots in the content model");
  ASAP_REQUIRE(params.max_query_terms >= 1 && params.max_query_terms <= 3,
               "1..3 query terms supported");
  ASAP_REQUIRE(params.rejoin_fraction >= 0.0 && params.rejoin_fraction <= 1.0,
               "rejoin fraction out of [0,1]");
  ASAP_REQUIRE(params.rejoin_fraction == 0.0 || params.mean_offline > 0.0,
               "mean offline duration must be positive");

  // Phase A: the query-arrival Poisson process. Only the horizon is
  // kept; individual times are re-derived from qt_rng_ (a pre-drain copy)
  // as the walk reaches them.
  Seconds clock = 0.0;
  for (std::uint32_t i = 0; i < params_.num_queries; ++i) {
    clock += rng_.exponential(params_.arrival_rate);
  }
  const Seconds horizon = clock;

  // Phase B: churn times, uniform over the active part of the trace
  // (skip the very beginning so the initial population handles the first
  // queries).
  churn_.reserve(params_.joins + params_.leaves);
  for (std::uint32_t i = 0; i < params_.joins; ++i) {
    churn_.push_back({rng_.uniform(horizon * 0.02, horizon), true});
  }
  for (std::uint32_t i = 0; i < params_.leaves; ++i) {
    churn_.push_back({rng_.uniform(horizon * 0.02, horizon), false});
  }
  std::sort(churn_.begin(), churn_.end(),
            [](const Churn& a, const Churn& b) { return a.time < b.time; });

  for (NodeId n = 0; n < model.params().initial_nodes; ++n) {
    for (DocId d : model.initial_docs(n)) {
      class_instances_[model.doc(d).topic].push_back({n, d});
    }
    online_pool_.push_back(n);
  }
}

bool StreamingTraceGenerator::next(TraceEvent& out) {
  while (buffer_head_ == buffer_.size()) {
    if (next_query_ >= params_.num_queries) return false;
    buffer_.clear();
    buffer_head_ = 0;
    step();
  }
  out = buffer_[buffer_head_++];
  return true;
}

void StreamingTraceGenerator::step() {
  const Seconds qt = (qt_clock_ += qt_rng_.exponential(params_.arrival_rate));
  ++next_query_;

  // Interleave churn events (and any due rejoins) preceding this query.
  while (churn_idx_ < churn_.size() && churn_[churn_idx_].time <= qt) {
    const Churn& c = churn_[churn_idx_++];
    flush_rejoins(c.time);
    TraceEvent ev;
    ev.time = c.time;
    if (c.join && next_joiner_ < model_.params().joiner_nodes) {
      ev.type = TraceEventType::kJoin;
      ev.node = model_.params().initial_nodes + next_joiner_++;
      ++joins_;
      emit(ev);
    } else if (!c.join && live_.live_count() > 10) {
      ev.type = TraceEventType::kLeave;
      ev.node = pick_online_node();
      ++leaves_;
      emit(ev);
      if (rng_.chance(params_.rejoin_fraction)) {
        const Seconds back =
            c.time + rng_.exponential(1.0 / params_.mean_offline);
        pending_rejoins_.push({back, ev.node});
      }
    }
  }
  flush_rejoins(qt);

  // The query itself: retry requesters until a valid target exists.
  TraceEvent ev;
  ev.time = qt;
  ev.type = TraceEventType::kQuery;
  Instance target{};
  bool found = false;
  for (int attempt = 0; attempt < 256 && !found; ++attempt) {
    ev.node = pick_online_node();
    found = pick_target(ev.node, target);
  }
  ASAP_CHECK(found);  // content model guarantees ample live instances
  ev.doc = target.doc;
  pick_terms(model_.doc(target.doc), ev);
  ++queries_;
  emit(ev);

  if (rng_.chance(params_.content_change_fraction)) {
    // Content change lands right after the query (same arrival burst).
    make_content_change(qt + 1e-4);
  }
}

void StreamingTraceGenerator::emit(TraceEvent ev) {
  live_.apply(ev, model_);
  switch (ev.type) {
    case TraceEventType::kAddDoc:
      class_instances_[model_.doc(ev.doc).topic].push_back({ev.node, ev.doc});
      break;
    case TraceEventType::kJoin:
      for (DocId d : model_.joiner_docs(ev.node)) {
        class_instances_[model_.doc(d).topic].push_back({ev.node, d});
      }
      online_pool_.push_back(ev.node);
      break;
    case TraceEventType::kRejoin:
      // Instances of this node were lazily dropped from the class pools
      // while it was offline; put its current documents back (duplicates
      // are harmless: sampling validates entries anyway).
      for (DocId d : live_.docs(ev.node)) {
        class_instances_[model_.doc(d).topic].push_back({ev.node, d});
      }
      online_pool_.push_back(ev.node);
      break;
    default:
      break;  // removals / leaves invalidated lazily
  }
  last_event_time_ = ev.time;
  buffer_.push_back(ev);
}

void StreamingTraceGenerator::flush_rejoins(Seconds upto) {
  while (!pending_rejoins_.empty() && pending_rejoins_.top().time <= upto) {
    const auto pr = pending_rejoins_.top();
    pending_rejoins_.pop();
    if (live_.online(pr.node)) continue;  // already back somehow
    TraceEvent ev;
    ev.time = pr.time;
    ev.type = TraceEventType::kRejoin;
    ev.node = pr.node;
    ++rejoins_;
    emit(ev);
  }
}

NodeId StreamingTraceGenerator::pick_online_node() {
  // Lazy compaction: drop stale entries as we meet them.
  for (int attempt = 0; attempt < 1'000; ++attempt) {
    ASAP_CHECK(!online_pool_.empty());
    const auto idx = rng_.below(online_pool_.size());
    const NodeId n = online_pool_[idx];
    if (live_.online(n)) return n;
    online_pool_[idx] = online_pool_.back();
    online_pool_.pop_back();
  }
  throw InvariantError("could not find an online node");
}

bool StreamingTraceGenerator::pick_target(NodeId requester, Instance& out) {
  const auto& interests = model_.interests(requester);
  if (interests.empty()) return false;
  // Try interest classes in random order; within a class, sample instances
  // with lazy invalidation.
  std::vector<TopicId> classes(interests.begin(), interests.end());
  rng_.shuffle(classes);
  for (TopicId cls : classes) {
    auto& pool = class_instances_[cls];
    for (int attempt = 0; attempt < 64 && !pool.empty(); ++attempt) {
      const auto idx = rng_.below(pool.size());
      const Instance inst = pool[idx];
      if (!live_.online(inst.node) || !live_.has_doc(inst.node, inst.doc)) {
        pool[idx] = pool.back();
        pool.pop_back();
        continue;
      }
      if (inst.node == requester) continue;  // self-hits are trivial
      out = inst;
      return true;
    }
  }
  return false;
}

void StreamingTraceGenerator::pick_terms(const Document& doc,
                                         TraceEvent& ev) {
  const auto& kws = doc.keywords;
  ASAP_CHECK(!kws.empty());
  const auto want = std::min<std::uint32_t>(
      1 + static_cast<std::uint32_t>(rng_.below(params_.max_query_terms)),
      static_cast<std::uint32_t>(kws.size()));

  // Unique (title) terms sit after the popular class terms in the keyword
  // id space; popular ids are below kNumClasses * popular_terms_per_class.
  const KeywordId popular_limit =
      kNumClasses * model_.params().popular_terms_per_class;

  std::vector<std::uint32_t> order(kws.size());
  for (std::uint32_t i = 0; i < kws.size(); ++i) order[i] = i;
  rng_.shuffle(order);

  ev.num_terms = 0;
  const bool force_unique = rng_.chance(params_.unique_term_bias);
  if (force_unique) {
    for (auto i : order) {
      if (kws[i] >= popular_limit) {
        ev.terms[ev.num_terms++] = kws[i];
        break;
      }
    }
  }
  for (auto i : order) {
    if (ev.num_terms >= want) break;
    const KeywordId kw = kws[i];
    bool dup = false;
    for (std::uint8_t j = 0; j < ev.num_terms; ++j) {
      dup = dup || ev.terms[j] == kw;
    }
    if (!dup) ev.terms[ev.num_terms++] = kw;
  }
  ASAP_CHECK(ev.num_terms >= 1);
}

DocId StreamingTraceGenerator::mint(TopicId cls) {
  if (mutable_model_) return mutable_model_->mint_document(cls, rng_);
  // Replay mode: consume the same draws, resolve to the pre-minted id.
  model_.replay_mint_draws(cls, rng_);
  const DocId id = next_mint_++;
  ASAP_CHECK(id < model_.num_docs());
  ASAP_CHECK(model_.doc(id).topic == cls);
  return id;
}

void StreamingTraceGenerator::make_content_change(Seconds time) {
  const NodeId n = pick_online_node();
  const auto& docs = live_.docs(n);
  const bool removal = !docs.empty() && rng_.chance(0.5);
  TraceEvent ev;
  ev.time = time;
  ev.node = n;
  if (removal) {
    ev.type = TraceEventType::kRemoveDoc;
    ev.doc = docs[rng_.below(docs.size())];
  } else {
    ev.type = TraceEventType::kAddDoc;
    const auto& interests = model_.interests(n);
    TopicId cls;
    if (!interests.empty()) {
      cls = interests[rng_.below(interests.size())];
    } else {
      cls = static_cast<TopicId>(rng_.below(kNumClasses));
    }
    // Half the additions replicate an existing document of the class (a
    // download being shared), half mint a brand-new single-copy document.
    DocId doc = kInvalidDoc;
    auto& pool = class_instances_[cls];
    if (!pool.empty() && rng_.chance(0.5)) {
      for (int attempt = 0; attempt < 16; ++attempt) {
        const Instance inst = pool[rng_.below(pool.size())];
        if (live_.online(inst.node) && live_.has_doc(inst.node, inst.doc) &&
            !live_.has_doc(n, inst.doc)) {
          doc = inst.doc;
          break;
        }
      }
    }
    if (doc == kInvalidDoc) doc = mint(cls);
    ev.doc = doc;
  }
  ++changes_;
  emit(ev);
}

std::uint64_t StreamingTraceGenerator::memory_bytes() const {
  std::uint64_t total = churn_.capacity() * sizeof(Churn) +
                        online_pool_.capacity() * sizeof(NodeId) +
                        buffer_.capacity() * sizeof(TraceEvent) +
                        live_.memory_bytes();
  for (const auto& pool : class_instances_) {
    total += pool.capacity() * sizeof(Instance);
  }
  return total;
}

}  // namespace asap::trace
