#include "asap/superpeer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace asap::ads {

namespace {
constexpr Seconds kInfTime = std::numeric_limits<Seconds>::infinity();
}

SuperpeerParams SuperpeerParams::small(search::Scheme s) {
  SuperpeerParams p;
  p.scheme = s;
  return p;  // defaults are already sized for the ~2,000-peer preset
}

SuperpeerAsap::SuperpeerAsap(search::Ctx& ctx, SuperpeerParams params)
    : ctx_(ctx),
      params_(params),
      spread_{params.scheme, params.walkers, params.budget_unit_m0,
              params.max_walk_hops},
      sp_mesh_(overlay::Overlay::edgeless(ctx.model.total_node_slots())) {
  ASAP_REQUIRE(params.superpeer_fraction > 0.0 &&
                   params.superpeer_fraction <= 1.0,
               "superpeer fraction out of (0,1]");
  ASAP_REQUIRE(params.budget_unit_m0 >= 1, "M0 must be positive");
  const auto slots = ctx.model.total_node_slots();
  is_superpeer_.assign(slots, 0);
  proxy_.assign(slots, kInvalidNode);
  advertisers_.reserve(slots);
  caches_.reserve(slots);
  for (NodeId n = 0; n < slots; ++n) {
    advertisers_.emplace_back(n);
    caches_.emplace_back(params.cache_capacity);
  }
  refresh_scheduled_.assign(slots, 0);
  build_hierarchy();
}

std::string SuperpeerAsap::name() const {
  switch (params_.scheme) {
    case search::Scheme::kFlooding:
      return "sp-asap(fld)";
    case search::Scheme::kRandomWalk:
      return "sp-asap(rw)";
    case search::Scheme::kGsa:
      return "sp-asap(gsa)";
  }
  return "sp-asap(?)";
}

void SuperpeerAsap::build_hierarchy() {
  // Promote the top-degree fraction of the initial overlay to superpeers —
  // in deployed systems capable/stable nodes self-select; degree is the
  // observable proxy our simulation has.
  const auto initial = ctx_.model.params().initial_nodes;
  num_superpeers_ = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(
             std::lround(params_.superpeer_fraction * initial)));
  std::vector<NodeId> by_degree(initial);
  std::iota(by_degree.begin(), by_degree.end(), 0);
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](NodeId a, NodeId b) {
                     return ctx_.ov.degree(a) > ctx_.ov.degree(b);
                   });
  for (std::uint32_t i = 0; i < num_superpeers_; ++i) {
    is_superpeer_[by_degree[i]] = 1;
  }

  // Superpeer mesh: direct superpeer-superpeer overlay edges, plus edges
  // between superpeers that share a leaf (two-hop adjacency) so sparse
  // topologies stay connected at the top tier.
  for (NodeId n = 0; n < initial; ++n) {
    if (is_superpeer_[n]) {
      for (NodeId nb : ctx_.ov.neighbors(n)) {
        if (nb < n && is_superpeer_[nb]) sp_mesh_.add_edge(n, nb);
      }
    } else {
      const auto nbs = ctx_.ov.neighbors(n);
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        if (!is_superpeer_[nbs[i]]) continue;
        for (std::size_t j = i + 1; j < nbs.size(); ++j) {
          if (is_superpeer_[nbs[j]]) sp_mesh_.add_edge(nbs[i], nbs[j]);
        }
      }
    }
  }

  for (NodeId n = 0; n < initial; ++n) proxy_[n] = assign_proxy(n);
}

NodeId SuperpeerAsap::assign_proxy(NodeId n) {
  if (is_superpeer_[n]) return n;
  // Prefer the highest-degree online superpeer neighbor.
  NodeId best = kInvalidNode;
  std::uint32_t best_degree = 0;
  for (NodeId nb : ctx_.ov.neighbors(n)) {
    if (is_superpeer_[nb] && ctx_.online(nb) &&
        ctx_.ov.degree(nb) >= best_degree) {
      best = nb;
      best_degree = ctx_.ov.degree(nb);
    }
  }
  if (best != kInvalidNode) return best;
  // No adjacent superpeer: pick the latency-closest online one (a
  // bootstrap service would hand this out in a real deployment).
  Seconds best_lat = kInfTime;
  const auto initial = ctx_.model.params().initial_nodes;
  for (NodeId sp = 0; sp < initial; ++sp) {
    if (!is_superpeer_[sp] || !ctx_.online(sp)) continue;
    const Seconds lat = ctx_.latency(n, sp);
    if (lat < best_lat) {
      best_lat = lat;
      best = sp;
    }
  }
  return best;
}

void SuperpeerAsap::publish(NodeId source, const AdMessage& ad, Seconds when,
                            double scale) {
  const Bytes msg_size = ad_bytes(ad, ctx_.sizes);
  const sim::Traffic cat = ad_traffic(ad.kind);
  ASAP_DCHECK(ad.kind != AdKind::kDelta);  // the hierarchy ships none
  ++(ad.kind == AdKind::kFull    ? counters_.full_ads
     : ad.kind == AdKind::kPatch ? counters_.patch_ads
                                 : counters_.refresh_ads);

  // Leaves upload the ad to their proxy first (one hop).
  NodeId entry = source;
  Seconds start = when;
  if (!is_superpeer_[source]) {
    const NodeId proxy = proxy_[source] != kInvalidNode &&
                                 ctx_.online(proxy_[source])
                             ? proxy_[source]
                             : assign_proxy(source);
    proxy_[source] = proxy;
    if (proxy == kInvalidNode) return;  // no live superpeer reachable
    start = when + ctx_.latency(source, proxy);
    ASAP_AUDIT_HOOK(ctx_.auditor, on_send(cat, msg_size));
    ctx_.ledger.deposit(start, cat, msg_size);
    ++counters_.proxy_uploads;
    entry = proxy;
  }

  // Superpeer caches run without trust or a fill gate, so admission has
  // no defense counters to move.
  auto apply_at = [&](NodeId sp, Seconds t) {
    admit(ctx_, caches_[sp], sp, ad, t, nullptr);
    ASAP_AUDIT_HOOK(ctx_.auditor, on_cache_occupancy(caches_[sp].size(),
                                                     params_.cache_capacity));
  };
  // The entry superpeer caches unconditionally (it proxies the source).
  apply_at(entry, start);

  // Dissemination runs over the superpeer mesh only. Superpeers cache all
  // ads (they serve queries from leaves with arbitrary interests).
  search::GraphScope scope(ctx_, sp_mesh_);
  auto visit = [&](NodeId sp, Seconds t, std::uint32_t) {
    apply_at(sp, t);
    return search::VisitAction::kContinue;
  };
  const auto prop =
      disseminate(ctx_, spread_, entry, start, params_.flood_ttl, scale,
                  ad.payload->topics, msg_size, cat, visit);
  ASAP_OBS_HOOK(ctx_.obs, trace_ad(when, source, ad_kind_name(ad.kind),
                                   prop.messages, prop.bytes));
}

void SuperpeerAsap::advertise_full(NodeId n, Seconds when, double scale) {
  auto payload = maybe_pollute(ctx_, n, advertisers_[n].publish_full(),
                               counters_.polluted_ads);
  publish(n, {AdKind::kFull, std::move(payload)}, when, scale);
  schedule_refresh(n);
}

void SuperpeerAsap::warm_up(Seconds duration) {
  ASAP_REQUIRE(duration > 0.0, "warm-up duration must be positive");
  const auto initial = ctx_.model.params().initial_nodes;
  for (NodeId n = 0; n < initial; ++n) {
    auto& adv = advertisers_[n];
    for (DocId d : ctx_.live.docs(n)) adv.add_document(ctx_.model.doc(d));
    if (!adv.has_content()) continue;
    const Seconds at = ctx_.rng.uniform(0.0, duration * 0.5);
    ctx_.engine.schedule_at(at, [this, n] {
      if (ctx_.online(n)) advertise_full(n, ctx_.engine.now(), 1.0);
    });
  }
}

void SuperpeerAsap::schedule_refresh(NodeId n) {
  if (refresh_scheduled_[n]) return;
  refresh_scheduled_[n] = 1;
  const Seconds delay = params_.refresh_period * ctx_.rng.uniform(0.5, 1.5);
  ctx_.engine.schedule_in(delay, [this, n] { on_refresh_timer(n); });
}

void SuperpeerAsap::on_refresh_timer(NodeId n) {
  refresh_scheduled_[n] = 0;
  if (!ctx_.online(n)) return;
  auto& adv = advertisers_[n];
  if (adv.has_advertised() && adv.has_content()) {
    publish(n, {AdKind::kRefresh, adv.payload()}, ctx_.engine.now(),
            params_.refresh_budget_scale);
  }
  schedule_refresh(n);
}

void SuperpeerAsap::on_trace_event(const trace::TraceEvent& ev) {
  switch (ev.type) {
    case trace::TraceEventType::kQuery:
      run_query(ev);
      break;
    case trace::TraceEventType::kAddDoc:
    case trace::TraceEventType::kRemoveDoc:
      on_content_change(ev);
      break;
    case trace::TraceEventType::kJoin:
      on_join(ev);
      break;
    case trace::TraceEventType::kRejoin: {
      // Re-pick a proxy (the old one may be gone) and re-announce.
      const NodeId n = ev.node;
      proxy_[n] = assign_proxy(n);
      if (advertisers_[n].has_content()) {
        advertise_full(n, ev.time, params_.join_budget_scale);
      }
      break;
    }
    case trace::TraceEventType::kLeave:
      break;
  }
}

void SuperpeerAsap::on_join(const trace::TraceEvent& ev) {
  const NodeId n = ev.node;
  // Joiners enter as leaves; grow the mesh's id space to keep it aligned
  // with the main overlay.
  while (sp_mesh_.num_nodes() < ctx_.ov.num_nodes()) {
    Rng throwaway(0);  // attach with zero edges; rng is never consumed
    sp_mesh_.attach_new(0, throwaway);
  }
  proxy_[n] = assign_proxy(n);
  auto& adv = advertisers_[n];
  for (DocId d : ctx_.live.docs(n)) adv.add_document(ctx_.model.doc(d));
  if (adv.has_content()) advertise_full(n, ev.time, params_.join_budget_scale);
}

void SuperpeerAsap::on_content_change(const trace::TraceEvent& ev) {
  const NodeId n = ev.node;
  auto& adv = advertisers_[n];
  const auto& doc = ctx_.model.doc(ev.doc);
  if (ev.type == trace::TraceEventType::kAddDoc) {
    adv.add_document(doc);
  } else {
    adv.remove_document(doc);
  }
  if (!ctx_.online(n)) return;
  if (!adv.has_advertised()) {
    if (adv.has_content()) {
      advertise_full(n, ev.time, params_.join_budget_scale);
    }
    return;
  }
  auto patch = adv.pending_patch();
  if (patch.empty()) return;
  const std::uint32_t base = adv.version();
  auto payload = adv.publish_full();
  // Polluters only ship full (stuffed) ads (see maybe_pollute).
  if (is_polluter(ctx_, n)) {
    publish(n,
            {AdKind::kFull, maybe_pollute(ctx_, n, std::move(payload),
                                          counters_.polluted_ads)},
            ev.time, params_.join_budget_scale);
    return;
  }
  publish(n, {AdKind::kPatch, std::move(payload), base, std::move(patch)},
          ev.time, params_.patch_budget_scale);
}

Seconds SuperpeerAsap::confirm_round(
    NodeId requester, Seconds start,
    std::span<const KeywordId> terms,
    std::span<const AdPayloadPtr> candidates, metrics::SearchRecord& rec,
    Seconds& resolve) {
  Seconds best = kInfTime;
  std::uint32_t sent = 0;
  for (const auto& ad : candidates) {
    if (sent >= kMaxConfirms) break;
    const NodeId s = ad->source;
    if (s == requester) continue;
    ++sent;
    ++counters_.confirm_requests;
    const Seconds lat = ctx_.latency(requester, s);
    const Seconds t_req = start + lat;
    ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_request());
    ASAP_AUDIT_HOOK(ctx_.auditor, on_send(sim::Traffic::kConfirm,
                                          ctx_.sizes.confirm_request));
    ctx_.ledger.deposit(t_req, sim::Traffic::kConfirm,
                        ctx_.sizes.confirm_request);
    ASAP_OBS_HOOK(ctx_.obs, on_confirm_sent(requester));
    rec.cost_bytes += ctx_.sizes.confirm_request;
    ++rec.messages;
    // Confirm-droppers swallow the request: to the requester this is
    // indistinguishable from an offline source.
    const bool dropped = ctx_.online(s) && ctx_.faults != nullptr &&
                         ctx_.faults->is_confirm_dropper(s);
    if (dropped) ++counters_.dropped_confirms;
    if (!ctx_.online(s) || dropped) {
      ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_timeout());
      ASAP_OBS_HOOK(ctx_.obs, on_confirm_timed_out(requester));
      ASAP_OBS_HOOK(ctx_.obs, trace_confirm(t_req, requester, s, "timeout"));
      resolve = std::max(resolve, start + 2.0 * lat);
      continue;  // the proxy's cache entry ages out via refresh gaps
    }
    const Seconds t_reply = t_req + lat;
    ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_reply());
    ASAP_AUDIT_HOOK(ctx_.auditor, on_send(sim::Traffic::kConfirm,
                                          ctx_.sizes.confirm_reply));
    ctx_.ledger.deposit(t_reply, sim::Traffic::kConfirm,
                        ctx_.sizes.confirm_reply);
    rec.cost_bytes += ctx_.sizes.confirm_reply;
    ++rec.messages;
    resolve = std::max(resolve, t_reply);
    bool matches = ctx_.live.node_matches(s, terms, ctx_.model);
    // Stale-advertisers advertise but never serve: every confirm comes
    // back empty-handed no matter what the ground truth says.
    if (matches && ctx_.faults != nullptr &&
        ctx_.faults->is_stale_advertiser(s)) {
      matches = false;
      ++counters_.forced_negatives;
    }
    if (matches) {
      best = std::min(best, t_reply);
      ++rec.results;
      ASAP_OBS_HOOK(ctx_.obs, on_confirm_positive(requester));
      ASAP_OBS_HOOK(ctx_.obs,
                    trace_confirm(t_reply, requester, s, "positive"));
    } else {
      ASAP_OBS_HOOK(ctx_.obs,
                    trace_confirm(t_reply, requester, s, "negative"));
    }
  }
  return best;
}

Seconds SuperpeerAsap::ads_request_phase(
    NodeId sp, Seconds start, const bloom::HashedQuery& query,
    metrics::SearchRecord* rec, std::vector<AdPayloadPtr>& matches_out) {
  matches_out.clear();
  if (params_.ads_request_hops == 0) return start;
  ++counters_.ads_requests;
  Seconds done = start;

  search::GraphScope scope(ctx_, sp_mesh_);
  auto visit = [&](NodeId v, Seconds t, std::uint32_t) {
    caches_[v].collect_for_reply(query, {}, kAdsReplyMax, kAdsReplyTopicalMax,
                                 reply_scratch_);
    Bytes reply_bytes = ctx_.sizes.ads_reply_header;
    for (const auto& ad : reply_scratch_) {
      reply_bytes += ctx_.sizes.ads_reply_entry_overhead +
                     full_ad_bytes(*ad, ctx_.sizes);
    }
    const Seconds t_back = t + ctx_.latency(v, sp);
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_send(sim::Traffic::kAdsRequest, reply_bytes));
    ctx_.ledger.deposit(t_back, sim::Traffic::kAdsRequest, reply_bytes);
    if (rec != nullptr) {
      rec->cost_bytes += reply_bytes;
      ++rec->messages;
    }
    done = std::max(done, t_back);
    for (auto& ad : reply_scratch_) {
      admit_full(ctx_, caches_[sp], sp, ad, t_back, nullptr);
      ASAP_AUDIT_HOOK(ctx_.auditor,
                      on_cache_occupancy(caches_[sp].size(),
                                         params_.cache_capacity));
      if (!query.empty() && query.matches(ad->filter)) {
        matches_out.push_back(ad);
      }
    }
    return search::VisitAction::kContinue;
  };
  const auto prop =
      search::flood(ctx_, sp, start, params_.ads_request_hops,
                    ctx_.sizes.ads_request, sim::Traffic::kAdsRequest, visit);
  if (rec != nullptr) {
    rec->cost_bytes += prop.bytes;
    rec->messages += prop.messages;
  }
  dedup_by_source(matches_out);
  return done;
}

void SuperpeerAsap::run_query(const trace::TraceEvent& ev) {
  const NodeId r = ev.node;
  const auto terms = ev.term_span();
  metrics::SearchRecord rec;

  // One-shot query hashing, shared by the proxy-side cache scan and the
  // widened superpeer-mesh lookup.
  const bloom::HashedQuery& query = ctx_.hash_query(terms);

  // Route to the proxy (superpeers serve themselves).
  NodeId sp = r;
  Seconds at_proxy = ev.time;
  if (!is_superpeer_[r]) {
    NodeId proxy = proxy_[r];
    if (proxy == kInvalidNode || !ctx_.online(proxy)) {
      proxy = assign_proxy(r);
      proxy_[r] = proxy;
    }
    if (proxy == kInvalidNode) {
      // No live superpeer: the search fails outright.
      ASAP_OBS_HOOK(ctx_.obs, trace_query(ev.time, r, false, false, 0.0,
                                          rec.cost_bytes, rec.messages, 0));
      if (!synthetic_query()) stats_.add(rec);
      return;
    }
    sp = proxy;
    at_proxy = ev.time + ctx_.latency(r, sp);
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_send(sim::Traffic::kConfirm, ctx_.sizes.query));
    ctx_.ledger.deposit(at_proxy, sim::Traffic::kConfirm, ctx_.sizes.query);
    rec.cost_bytes += ctx_.sizes.query;
    ++rec.messages;
    ++counters_.proxy_queries;
  }

  // Proxy-side lookup; the candidate list travels back to the requester,
  // which confirms with the sources directly.
  caches_[sp].collect_matches(query, scratch_ads_);
  Seconds confirm_start = at_proxy;
  if (sp != r) {
    confirm_start = at_proxy + ctx_.latency(sp, r);
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_send(sim::Traffic::kConfirm, ctx_.sizes.response));
    ctx_.ledger.deposit(confirm_start, sim::Traffic::kConfirm,
                        ctx_.sizes.response);
    rec.cost_bytes += ctx_.sizes.response;
    ++rec.messages;
  }
  Seconds resolve = confirm_start;
  Seconds best =
      confirm_round(r, confirm_start, terms, scratch_ads_, rec, resolve);
  const bool local = best < kInfTime;

  if (!local) {
    // Proxy widens the lookup among its superpeer neighbors.
    std::vector<AdPayloadPtr> fresh;
    const Seconds done = ads_request_phase(sp, resolve, query, &rec, fresh);
    if (!fresh.empty()) {
      Seconds fetch_start = done;
      if (sp != r) {
        fetch_start = done + ctx_.latency(sp, r);
        ASAP_AUDIT_HOOK(ctx_.auditor,
                        on_send(sim::Traffic::kConfirm, ctx_.sizes.response));
        ctx_.ledger.deposit(fetch_start, sim::Traffic::kConfirm,
                            ctx_.sizes.response);
        rec.cost_bytes += ctx_.sizes.response;
        ++rec.messages;
      }
      Seconds resolve2 = fetch_start;
      best = std::min(best, confirm_round(r, fetch_start, terms, fresh, rec,
                                          resolve2));
    }
  }

  rec.success = best < kInfTime;
  rec.local_hit = local;
  rec.response_time = rec.success ? best - ev.time : 0.0;
  ASAP_OBS_HOOK(ctx_.obs,
                trace_query(ev.time, r, rec.success, rec.local_hit,
                            rec.response_time, rec.cost_bytes, rec.messages,
                            rec.results));
  if (!synthetic_query()) stats_.add(rec);
}

std::uint64_t SuperpeerAsap::total_cached_ads() const {
  std::uint64_t total = 0;
  for (NodeId n = 0; n < caches_.size(); ++n) {
    if (is_superpeer_[n]) total += caches_[n].size();
  }
  return total;
}

}  // namespace asap::ads
