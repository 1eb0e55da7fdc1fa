#include "asap/asap_protocol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "search/propagation.hpp"

namespace asap::ads {

namespace {
constexpr Seconds kInfTime = std::numeric_limits<Seconds>::infinity();
/// Refresh beacons flood shallower than full/patch ads (ASAP(FLD)).
constexpr std::uint32_t kRefreshFloodTtl = 3;
/// Caps on one failure-path ads-request reply: ads in total, and topical
/// (non-term-matching) ads among them.
constexpr std::uint32_t kAdsReplyMax = 16;
constexpr std::uint32_t kAdsReplyTopicalMax = 8;
/// Confirmations per lookup round.
constexpr std::uint32_t kMaxConfirms = 8;
/// Byte budget for confirm retries per confirm round, so total-loss
/// scenarios terminate with bounded cost.
constexpr Bytes kConfirmRetryBudget = 4'096;
}  // namespace

AsapParams AsapParams::paper(search::Scheme s) {
  AsapParams p;
  p.scheme = s;
  return p;
}

AsapParams AsapParams::small(search::Scheme s) {
  AsapParams p;
  p.scheme = s;
  // M0 = 3000 on the ~5x smaller population raises per-delivery coverage to
  // ~95%, which is what gives ASAP its near-local search behaviour. The
  // maintenance deliveries (join/patch/refresh) are scaled down by the same
  // 5x population ratio so their per-node background load — and therefore
  // the ASAP-vs-baseline load ratios of Fig 8/9 — matches the paper-scale
  // configuration (see EXPERIMENTS.md, calibration notes).
  p.budget_unit_m0 = 3'000;
  p.join_budget_scale = 0.01;
  p.patch_budget_scale = 0.05;
  p.refresh_budget_scale = 0.016;
  p.join_reply_max = 16;
  return p;
}

AsapProtocol::AsapProtocol(search::Ctx& ctx, AsapParams params)
    : ctx_(ctx),
      params_(params),
      spread_{params.scheme, params.walkers, params.budget_unit_m0,
              params.max_walk_hops, params.interest_bias} {
  ASAP_REQUIRE(params.budget_unit_m0 >= 1, "M0 must be positive");
  // cache_capacity 0 is allowed: AdCache treats it as caching disabled,
  // which is a useful ablation (ASAP degenerates toward its walk baseline).
  const auto slots = ctx.model.total_node_slots();
  advertisers_.reserve(slots);
  caches_.reserve(slots);
  for (NodeId n = 0; n < slots; ++n) {
    advertisers_.emplace_back(n);
    caches_.emplace_back(params.cache_capacity);
  }
  refresh_scheduled_.assign(slots, 0);
  if (params_.stale_readmit_backoff > 0.0) {
    for (auto& c : caches_) {
      c.set_readmit_backoff(params_.stale_readmit_backoff);
    }
  }
  if (params_.trust_enabled) {
    for (auto& c : caches_) {
      c.set_trust_params(params_.trust_reward, params_.trust_strike_decay,
                         params_.trust_quarantine_threshold,
                         params_.trust_quarantine_backoff);
    }
  }
  if (params_.strike_per_chain) {
    for (auto& c : caches_) c.set_strike_per_chain(true);
  }
  if (params_.trust_fill_gate > 0.0) {
    for (auto& c : caches_) c.set_fill_gate(params_.trust_fill_gate);
  }
  if (overload_enabled()) pending_.resize(slots);
  if (adaptive()) {
    scheds_.assign(slots, AdScheduler());
  }
}

std::uint64_t AsapProtocol::state_bytes() const {
  std::uint64_t total = advertisers_.capacity() * sizeof(Advertiser) +
                        caches_.capacity() * sizeof(AdCache) +
                        refresh_scheduled_.capacity() +
                        scheds_.capacity() * sizeof(AdScheduler);
  for (const auto& a : advertisers_) total += a.memory_bytes();
  for (const auto& c : caches_) total += c.memory_bytes();
  total += pending_.capacity() * sizeof(std::vector<Seconds>);
  for (const auto& q : pending_) total += q.capacity() * sizeof(Seconds);
  return total;
}

std::string AsapProtocol::name() const {
  const char* mode = "asap";
  switch (params_.ad_mode) {
    case AdMode::kVanilla:
      break;
    case AdMode::kAdaptive:
      mode = "asap-adaptive";
      break;
    case AdMode::kDelta:
      mode = "asap-delta";
      break;
  }
  switch (params_.scheme) {
    case search::Scheme::kFlooding:
      return std::string(mode) + "(fld)";
    case search::Scheme::kRandomWalk:
      return std::string(mode) + "(rw)";
    case search::Scheme::kGsa:
      return std::string(mode) + "(gsa)";
  }
  return std::string(mode) + "(?)";
}

void AsapProtocol::count_sent(AdKind kind) {
  switch (kind) {
    case AdKind::kFull:
      ++counters_.full_ads;
      break;
    case AdKind::kPatch:
      ++counters_.patch_ads;
      break;
    case AdKind::kRefresh:
      ++counters_.refresh_ads;
      break;
    case AdKind::kDelta:
      ++counters_.delta_ads;
      break;
  }
}

void AsapProtocol::deliver_ad(NodeId src, const AdMessage& ad, Seconds when,
                              double scale) {
  ASAP_DCHECK(ad.payload != nullptr);
  const Bytes msg_size = ad_bytes(ad, ctx_.sizes);
  count_sent(ad.kind);

  auto visit = [&](NodeId v, Seconds t, std::uint32_t) {
    if (v == src) return search::VisitAction::kContinue;
    // Selective caching: only interested nodes keep the ad (§III-B).
    if (!topics_overlap(ad.payload->topics, ctx_.model.interests(v))) {
      return search::VisitAction::kContinue;
    }
    AdCache& cache = caches_[v];
    const auto outcome = admit(ctx_, cache, v, ad, t, &counters_);
    if (ad.kind == AdKind::kRefresh && outcome != UpdateOutcome::kApplied &&
        params_.refresh_pull) {
      // Extension: pull the full ad straight from the source.
      const Seconds done = t + 2.0 * ctx_.latency(v, src);
      ASAP_AUDIT_HOOK(ctx_.auditor, on_send(sim::Traffic::kFullAd,
                                            ctx_.sizes.confirm_request));
      ctx_.ledger.deposit(t, sim::Traffic::kFullAd,
                          ctx_.sizes.confirm_request);
      const Bytes pull_bytes = full_ad_bytes(*ad.payload, ctx_.sizes);
      ASAP_AUDIT_HOOK(ctx_.auditor,
                      on_send(sim::Traffic::kFullAd, pull_bytes));
      ctx_.ledger.deposit(done, sim::Traffic::kFullAd, pull_bytes);
      admit_full(ctx_, cache, v, ad.payload, done, &counters_);
      ++counters_.refresh_pulls;
    }
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_cache_occupancy(cache.size(), params_.cache_capacity));
    return search::VisitAction::kContinue;
  };

  const auto ttl =
      ad.kind == AdKind::kRefresh ? kRefreshFloodTtl : params_.flood_ttl;
  const auto prop =
      disseminate(ctx_, spread_, src, when, ttl, scale, ad.payload->topics,
                  msg_size, ad_traffic(ad.kind), visit);
  ASAP_OBS_HOOK(ctx_.obs, trace_ad(when, src, ad_kind_name(ad.kind),
                                   prop.messages, prop.bytes));
}

void AsapProtocol::advertise_full(NodeId n, Seconds when, double scale) {
  auto payload = maybe_pollute(ctx_, n, advertisers_[n].publish_full(),
                               counters_.polluted_ads);
  deliver_ad(n, {AdKind::kFull, std::move(payload)}, when, scale);
  schedule_refresh(n);
}

void AsapProtocol::warm_up(Seconds duration) {
  ASAP_REQUIRE(duration > 0.0, "warm-up duration must be positive");
  // Every initially-online sharer advertises a full ad at a random point in
  // the first half of the warm-up window; the second half absorbs the walk
  // durations (a budget/walkers-hop walk takes minutes of virtual time), so
  // no warm-up traffic lands inside the measurement window.
  const auto initial = ctx_.model.params().initial_nodes;
  for (NodeId n = 0; n < initial; ++n) {
    auto& adv = advertisers_[n];
    for (DocId d : ctx_.live.docs(n)) adv.add_document(ctx_.model.doc(d));
    if (!adv.has_content()) continue;  // free-riders advertise nothing
    const Seconds at = ctx_.rng.uniform(0.0, duration * 0.5);
    ctx_.engine.schedule_at(at, [this, n] {
      if (ctx_.online(n)) advertise_full(n, ctx_.engine.now(), 1.0);
    });
  }
}

void AsapProtocol::schedule_refresh(NodeId n) {
  if (refresh_scheduled_[n]) return;
  refresh_scheduled_[n] = 1;
  const Seconds delay =
      params_.refresh_period * ctx_.rng.uniform(0.5, 1.5);
  ctx_.engine.schedule_in(delay, [this, n] { on_refresh_timer(n); });
}

void AsapProtocol::on_refresh_timer(NodeId n) {
  refresh_scheduled_[n] = 0;
  if (!ctx_.online(n)) return;  // departed: beaconing stops
  if (adaptive()) {
    // The refresh timer doubles as the ad-round timer: one scheduler
    // round, one packed frame.
    run_ad_round(n);
    schedule_refresh(n);
    return;
  }
  auto& adv = advertisers_[n];
  if (adv.has_advertised() && adv.has_content()) {
    deliver_ad(n, {AdKind::kRefresh, adv.payload()}, ctx_.engine.now(),
               params_.refresh_budget_scale);
  }
  schedule_refresh(n);
}

void AsapProtocol::run_ad_round(NodeId n) {
  auto& adv = advertisers_[n];
  auto& sched = scheds_[n];
  // Keep the beacon item in sync with the advertising state; the change
  // item was enqueued (urgent) at content-change time.
  if (adv.has_advertised() && adv.has_content()) {
    sched.upsert(kBeaconItem, refresh_ad_bytes(ctx_.sizes), false);
  } else {
    sched.erase(kBeaconItem);
  }
  const auto plan = sched.next_round(emissions_scratch_);
  ++counters_.ad_rounds;
  counters_.spilled_entries += plan.spilled;

  frame_scratch_.clear();
  bool shipped_full = false;
  bool shipped_change = false;
  for (const auto& e : emissions_scratch_) {
    if (e.id == kChangeItem) {
      // All content changes since the last shipped round, coalesced into
      // one patch (or delta) computed now — never at change time, so a
      // burst of changes costs one wire body.
      sched.erase(kChangeItem);  // consumed (re-enqueued by the next change)
      if (params_.ad_mode == AdMode::kDelta) {
        auto delta = adv.pending_delta();
        if (delta.empty()) continue;  // changes cancelled out
        if (is_polluter(ctx_, n) ||
            delta.size() > params_.patch_to_full_threshold) {
          // Too far from the base: re-base with a full ad. Polluters always
          // re-base (see maybe_pollute).
          frame_scratch_.emplace_back(
              AdKind::kFull, maybe_pollute(ctx_, n, adv.publish_full(),
                                           counters_.polluted_ads));
          shipped_full = true;
        } else {
          const std::uint32_t base = adv.base_version();
          // publish_update keeps the base put.
          frame_scratch_.emplace_back(AdKind::kDelta, adv.publish_update(),
                                      base, std::move(delta));
          shipped_change = true;
        }
      } else {
        auto patch = adv.pending_patch();
        if (patch.empty()) continue;
        const std::uint32_t base = adv.version();
        auto payload = adv.publish_full();
        if (is_polluter(ctx_, n) ||
            patch.size() > params_.patch_to_full_threshold) {
          frame_scratch_.emplace_back(
              AdKind::kFull, maybe_pollute(ctx_, n, std::move(payload),
                                           counters_.polluted_ads));
          shipped_full = true;
        } else {
          frame_scratch_.emplace_back(AdKind::kPatch, std::move(payload), base,
                                      std::move(patch));
          shipped_change = true;
        }
      }
    } else {  // kBeaconItem
      if (!adv.has_advertised()) continue;
      // Built after any change entry (urgent emissions come first), so
      // the beacon carries the freshly bumped version.
      frame_scratch_.emplace_back(AdKind::kRefresh, adv.payload());
    }
  }
  if (frame_scratch_.empty()) return;
  if (shipped_full || shipped_change) {
    // Changed content restarts the beacon's every-round cadence.
    sched.touch_changed(kBeaconItem);
  }
  const double scale = shipped_full     ? params_.join_budget_scale
                       : shipped_change ? params_.patch_budget_scale
                                        : params_.refresh_budget_scale;
  deliver_packed(n, ctx_.engine.now(), scale, frame_scratch_, plan.spilled);
}

void AsapProtocol::deliver_packed(NodeId src, Seconds when, double scale,
                                  std::span<const AdMessage> entries,
                                  std::uint32_t spilled) {
  ASAP_DCHECK(!entries.empty());
  Bytes msg_size = ctx_.sizes.packed_frame_header;
  bool beacon_only = true;
  for (const AdMessage& e : entries) {
    msg_size += ctx_.sizes.packed_entry_overhead + ad_bytes(e, ctx_.sizes);
    count_sent(e.kind);
    beacon_only = beacon_only && e.kind == AdKind::kRefresh;
  }
  ++counters_.packed_frames;
  counters_.packed_entries += entries.size();

  auto visit = [&](NodeId v, Seconds t, std::uint32_t) {
    if (v == src) return search::VisitAction::kContinue;
    AdCache& cache = caches_[v];
    for (const AdMessage& e : entries) {
      // Selective caching per entry, same gate as deliver_ad (§III-B).
      // refresh_pull is a vanilla-mode ablation; packed beacons only
      // touch / invalidate.
      if (topics_overlap(e.payload->topics, ctx_.model.interests(v))) {
        admit(ctx_, cache, v, e, t, &counters_);
      }
    }
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_cache_occupancy(cache.size(), params_.cache_capacity));
    return search::VisitAction::kContinue;
  };

  const auto ttl = beacon_only ? kRefreshFloodTtl : params_.flood_ttl;
  const auto prop = disseminate(ctx_, spread_, src, when, ttl, scale,
                                entries.front().payload->topics, msg_size,
                                sim::Traffic::kPackedAd, visit);
  ASAP_OBS_HOOK(ctx_.obs,
                trace_ad(when, src, "packed", prop.messages, prop.bytes));
  ASAP_OBS_HOOK(ctx_.obs,
                trace_ad_round(when, src,
                               static_cast<std::uint32_t>(entries.size()),
                               spilled, prop.bytes));
}

void AsapProtocol::on_trace_event(const trace::TraceEvent& ev) {
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
    case trace::TraceEventType::kRejoin:
      on_rejoin(ev);
      break;
    case trace::TraceEventType::kLeave:
      break;  // cached state persists; timers notice the departure lazily
  }
}

void AsapProtocol::on_rejoin(const trace::TraceEvent& ev) {
  const NodeId n = ev.node;
  auto& adv = advertisers_[n];
  // The node kept its content across the offline period; its remote
  // cachers may hold stale versions, so it re-announces with a fresh full
  // ad. Its own cache "could be mostly out of date" (§III-C), so it runs
  // the same ads-request flow a brand-new node uses.
  if (adv.has_content()) {
    if (adaptive() && adv.has_advertised() && !adv.dirty()) {
      // Adaptive rejoin shortcut: nothing changed while away, so every
      // remote cacher still holds the *current* version — an urgent
      // refresh beacon in the next packed round re-validates them for a
      // few dozen bytes. Vanilla's full re-announcement at join breadth
      // is the dominant advertisement cost under churn, and for an
      // unchanged filter it carries zero new information.
      scheds_[n].upsert(kBeaconItem, refresh_ad_bytes(ctx_.sizes),
                        /*urgent=*/true);
      schedule_refresh(n);
    } else {
      advertise_full(n, ev.time, params_.join_budget_scale);
    }
  }
  std::vector<AdPayloadPtr> unused;
  ads_request_phase(n, ev.time, ctx_.hash_query({}), nullptr, {}, unused);
}

void AsapProtocol::on_join(const trace::TraceEvent& ev) {
  const NodeId n = ev.node;
  ASAP_CHECK(n < advertisers_.size());
  auto& adv = advertisers_[n];
  for (DocId d : ctx_.live.docs(n)) adv.add_document(ctx_.model.doc(d));
  if (adv.has_content()) advertise_full(n, ev.time, params_.join_budget_scale);
  // Warm the joiner's cache with topical ads from its new neighbors — the
  // same ads-request flow a failed search uses (paper §III-C).
  std::vector<AdPayloadPtr> unused;
  ads_request_phase(n, ev.time, ctx_.hash_query({}), nullptr, {}, unused);
}

void AsapProtocol::on_content_change(const trace::TraceEvent& ev) {
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
    // First-time sharer (e.g. a free-rider that started sharing).
    if (adv.has_content()) {
      advertise_full(n, ev.time, params_.join_budget_scale);
    }
    return;
  }

  if (adaptive()) {
    // Changes wait for the next ad round: the scheduler's urgent change
    // item coalesces everything that happens before the round fires, and
    // the round ships one budget-packed frame instead of one walk per
    // change event.
    auto& sched = scheds_[n];
    const auto pending = params_.ad_mode == AdMode::kDelta
                             ? adv.pending_delta()
                             : adv.pending_patch();
    if (pending.empty()) {
      sched.erase(kChangeItem);  // the changes cancelled out
      return;
    }
    const Bytes est = ad_bytes(
        params_.ad_mode == AdMode::kDelta ? AdKind::kDelta : AdKind::kPatch,
        *adv.payload(), pending.size(), ctx_.sizes);
    sched.upsert(kChangeItem, est, /*urgent=*/true);
    schedule_refresh(n);  // no-op if the round timer is already pending
    return;
  }

  auto patch = adv.pending_patch();
  if (patch.empty()) return;  // shared keywords absorbed the change
  const std::uint32_t base = adv.version();
  auto payload = adv.publish_full();  // canonical payload for the new version
  // Polluters only ship full (stuffed) ads (see maybe_pollute).
  if (is_polluter(ctx_, n) || patch.size() > params_.patch_to_full_threshold) {
    deliver_ad(n,
               {AdKind::kFull, maybe_pollute(ctx_, n, std::move(payload),
                                             counters_.polluted_ads)},
               ev.time, params_.join_budget_scale);
  } else {
    deliver_ad(n, {AdKind::kPatch, std::move(payload), base, std::move(patch)},
               ev.time, params_.patch_budget_scale);
  }
}

Seconds AsapProtocol::confirm_round(NodeId p, Seconds start,
                                    std::span<const KeywordId> terms,
                                    std::span<const AdPayloadPtr> candidates,
                                    metrics::SearchRecord& rec,
                                    Seconds& resolve,
                                    std::vector<NodeId>& dead_sources) {
  Seconds best = kInfTime;
  std::uint32_t sent = 0;
  const std::uint32_t max_attempts =
      std::max<std::uint32_t>(1, params_.confirm_max_attempts);
  Bytes retry_budget_left = kConfirmRetryBudget;
  for (const auto& ad : candidates) {
    if (sent >= kMaxConfirms) break;
    const NodeId s = ad->source;
    if (s == p) continue;
    ++sent;
    // Byzantine roles of the confirm target, resolved once per candidate
    // (deterministic bitmaps — no draws).
    const bool dropper =
        ctx_.faults != nullptr && ctx_.faults->is_confirm_dropper(s);
    const bool never_serves =
        ctx_.faults != nullptr && ctx_.faults->is_stale_advertiser(s);
    bool replied = false;
    Seconds t_attempt = start;
    Seconds t_deadline = start;
    for (std::uint32_t attempt = 1; attempt <= max_attempts; ++attempt) {
      if (attempt > 1) {
        // Retries share a per-round byte budget so a fully-lossy network
        // still terminates with bounded cost.
        if (retry_budget_left < ctx_.sizes.confirm_request) break;
        retry_budget_left -= ctx_.sizes.confirm_request;
        ++counters_.confirm_retries;
        counters_.retry_bytes += ctx_.sizes.confirm_request;
        ASAP_OBS_HOOK(ctx_.obs, on_confirm_retry(p));
        ASAP_OBS_HOOK(ctx_.obs, trace_retry(t_attempt, p, s, attempt));
      }
      ++counters_.confirm_requests;
      const Seconds lat = ctx_.hop_latency(p, s);
      const Seconds t_req = t_attempt + lat;
      ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_request());
      ASAP_AUDIT_HOOK(ctx_.auditor, on_send(sim::Traffic::kConfirm,
                                            ctx_.sizes.confirm_request));
      ctx_.ledger.deposit(t_req, sim::Traffic::kConfirm,
                          ctx_.sizes.confirm_request);
      ASAP_OBS_HOOK(ctx_.obs, on_confirm_sent(p));
      rec.cost_bytes += ctx_.sizes.confirm_request;
      ++rec.messages;
      const bool alive = ctx_.online(s);
      bool request_lost = alive && ctx_.direct_lost(p, s, t_req);
      if (alive && !request_lost && dropper) {
        // Confirm-dropper: the request arrives and is silently discarded —
        // the requester observes a timeout; no reply bytes are ever paid.
        request_lost = true;
        ++counters_.dropped_confirms;
      }
      if (alive && !request_lost) {
        const Seconds t_reply = t_req + lat;
        ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_reply());
        ASAP_AUDIT_HOOK(ctx_.auditor, on_send(sim::Traffic::kConfirm,
                                              ctx_.sizes.confirm_reply));
        ctx_.ledger.deposit(t_reply, sim::Traffic::kConfirm,
                            ctx_.sizes.confirm_reply);
        rec.cost_bytes += ctx_.sizes.confirm_reply;
        ++rec.messages;
        if (!ctx_.direct_lost(s, p, t_reply)) {
          replied = true;
          resolve = std::max(resolve, t_reply);
          caches_[p].reset_timeouts(s);
          bool matches = ctx_.live.node_matches(s, terms, ctx_.model);
          if (matches && never_serves) {
            // Stale-advertiser: replies, but always refuses to serve.
            matches = false;
            ++counters_.forced_negatives;
          }
          if (matches) {
            best = std::min(best, t_reply);
            caches_[p].touch(s, t_reply);
            ++rec.results;
            caches_[p].record_reward(s);
            ASAP_OBS_HOOK(ctx_.obs, on_confirm_positive(p));
            ASAP_OBS_HOOK(ctx_.obs, trace_confirm(t_reply, p, s, "positive"));
          } else {
            ASAP_OBS_HOOK(ctx_.obs, trace_confirm(t_reply, p, s, "negative"));
            if (caches_[p].trust_enabled()) {
              // With trust on, a negative confirm is a false-positive
              // strike: the ad claimed content the source will not serve.
              ++counters_.trust_strikes;
              ASAP_OBS_HOOK(ctx_.obs, on_trust_strike(p));
              ASAP_OBS_HOOK(ctx_.obs, trace_trust_strike(t_reply, p, s,
                                                         "false-positive"));
              if (caches_[p].record_strike(s, t_reply)) {
                ++counters_.quarantines;
                ASAP_OBS_HOOK(ctx_.obs, on_quarantine_enter(p));
                ASAP_OBS_HOOK(ctx_.obs,
                              trace_quarantine(t_reply, p, s, "enter"));
              }
            }
          }
          // Without trust scoring, a negative confirmation (cross-document
          // or Bloom false positive) keeps the entry: the ad honestly
          // summarizes the source's content.
          break;
        }
        // The reply was produced and paid for but lost in transit; the
        // requester can only observe a timeout below.
      } else {
        // Connection failure (dead source) or a lost request: the
        // requester's view of this request is a timeout.
        ASAP_AUDIT_HOOK(ctx_.auditor, on_confirm_timeout());
      }
      ++counters_.confirm_timeouts;
      ASAP_OBS_HOOK(ctx_.obs, on_confirm_timed_out(p));
      ASAP_OBS_HOOK(ctx_.obs, trace_confirm(t_req, p, s, "timeout"));
      t_deadline = t_attempt + 2.0 * lat;  // the requester waits ~1 RTT
      resolve = std::max(resolve, t_deadline);
      // Exponential backoff before the next attempt (if any).
      t_attempt = t_deadline + params_.confirm_retry_backoff *
                                  static_cast<double>(1u << (attempt - 1));
    }
    if (!replied) {
      // All attempts timed out: one more strike against the cached ad;
      // after stale_timeout_strikes consecutive strikes the entry goes
      // (legacy default 1: first timeout evicts). The chain-aware overload
      // collapses overlapping chains to one strike when the guard is on.
      const std::uint32_t needed =
          std::max<std::uint32_t>(1, params_.stale_timeout_strikes);
      const std::uint32_t strikes =
          caches_[p].record_timeout(s, start, t_deadline);
      bool quarantined = false;
      if (caches_[p].trust_enabled()) {
        // A timed-out chain also damages trust, so persistent silence
        // (stale advertisers, droppers) eventually quarantines the source.
        ++counters_.trust_strikes;
        ASAP_OBS_HOOK(ctx_.obs, on_trust_strike(p));
        ASAP_OBS_HOOK(ctx_.obs, trace_trust_strike(t_deadline, p, s,
                                                   "timeout"));
        if (caches_[p].record_strike(s, t_deadline)) {
          ++counters_.quarantines;
          ASAP_OBS_HOOK(ctx_.obs, on_quarantine_enter(p));
          ASAP_OBS_HOOK(ctx_.obs, trace_quarantine(t_deadline, p, s, "enter"));
          quarantined = true;
        }
      }
      // erase_stale (not erase): with a configured re-admission backoff the
      // evicted source's ads are dropped for a while, so an in-flight
      // delivery cannot re-admit the just-evicted stale ad immediately.
      if (!quarantined && strikes >= needed &&
          caches_[p].erase_stale(s, t_deadline)) {
        ++counters_.stale_evictions;
        ASAP_OBS_HOOK(ctx_.obs, on_stale_evicted(p));
        ASAP_OBS_HOOK(ctx_.obs, trace_stale_evict(t_deadline, p, s));
        repair_pending_since_ = std::min(repair_pending_since_, t_deadline);
      }
      dead_sources.push_back(s);
    }
  }
  return best;
}

Seconds AsapProtocol::ads_request_phase(
    NodeId p, Seconds start, const bloom::HashedQuery& query,
    metrics::SearchRecord* rec, std::span<const NodeId> skip_sources,
    std::vector<AdPayloadPtr>& matches_out) {
  matches_out.clear();
  last_request_stored_ = 0;
  if (params_.ads_request_hops == 0) return start;
  ++counters_.ads_requests;
  Seconds done = start;
  const auto& interests = ctx_.model.interests(p);

  const std::uint32_t total_cap =
      query.empty() ? params_.join_reply_max : kAdsReplyMax;
  const std::uint32_t topical_cap =
      query.empty() ? params_.join_reply_max : kAdsReplyTopicalMax;
  auto visit = [&](NodeId v, Seconds t, std::uint32_t) {
    caches_[v].collect_for_reply(query, interests, total_cap, topical_cap,
                                 reply_scratch_);
    Bytes reply_bytes = ctx_.sizes.ads_reply_header;
    for (const auto& ad : reply_scratch_) {
      reply_bytes +=
          ctx_.sizes.ads_reply_entry_overhead + full_ad_bytes(*ad, ctx_.sizes);
    }
    const Seconds t_back = t + ctx_.latency(v, p);
    ASAP_AUDIT_HOOK(ctx_.auditor,
                    on_send(sim::Traffic::kAdsRequest, reply_bytes));
    ctx_.ledger.deposit(t_back, sim::Traffic::kAdsRequest, reply_bytes);
    if (rec != nullptr) {
      rec->cost_bytes += reply_bytes;
      ++rec->messages;
    }
    done = std::max(done, t_back);
    for (auto& ad : reply_scratch_) {
      if (ad->source == p) continue;
      if (std::find(skip_sources.begin(), skip_sources.end(), ad->source) !=
          skip_sources.end()) {
        continue;  // the requester just saw this source dead
      }
      const auto r = caches_[p].put(ad, t_back, ctx_.rng);
      if (r.stored) {
        ++last_request_stored_;
        ASAP_OBS_HOOK(ctx_.obs, on_ad_stored(p));
      }
      if (r.evicted) ASAP_OBS_HOOK(ctx_.obs, on_ad_evicted(p));
      if (r.readmitted) {
        ++counters_.readmissions;
        ASAP_OBS_HOOK(ctx_.obs, on_quarantine_exit(p));
        ASAP_OBS_HOOK(ctx_.obs,
                      trace_quarantine(t_back, p, ad->source, "exit"));
      }
      ASAP_AUDIT_HOOK(ctx_.auditor,
                      on_cache_occupancy(caches_[p].size(),
                                         params_.cache_capacity));
      if (!query.empty() && query.matches(ad->filter)) {
        matches_out.push_back(ad);
      }
    }
    return search::VisitAction::kContinue;
  };

  const auto prop =
      search::flood(ctx_, p, start, params_.ads_request_hops,
                    ctx_.sizes.ads_request, sim::Traffic::kAdsRequest, visit);
  if (rec != nullptr) {
    rec->cost_bytes += prop.bytes;
    rec->messages += prop.messages;
  }

  dedup_by_source(matches_out);
  return done;
}

void AsapProtocol::run_query(const trace::TraceEvent& ev) {
  const NodeId p = ev.node;
  const Seconds t0 = ev.time;
  // A crash-stop node issues nothing: the trace's query never happens, for
  // any algorithm (the fault plan is world-seeded, so all algorithms skip
  // the same queries and success rates stay comparable).
  if (ctx_.faults != nullptr && ctx_.faults->crashed(p, t0)) return;
  const auto terms = ev.term_span();
  metrics::SearchRecord rec;
  rec.issued_at = t0;
  repair_pending_since_ = kInfTime;

  // Overload protection: bounded per-origin pending-query queue with
  // deterministic shedding, plus graceful degradation (TTL clamp-down)
  // under pressure. pending_ is empty unless a cap/clamp is configured.
  bool clamp_ttl = false;
  if (!pending_.empty()) {
    auto& inflight = pending_[p];
    std::erase_if(inflight, [t0](Seconds end) { return end <= t0; });
    const auto depth = static_cast<std::uint32_t>(inflight.size());
    if (params_.pending_query_cap > 0 &&
        depth >= params_.pending_query_cap) {
      // Shed: the query fails immediately at zero protocol cost. A shed
      // legitimate query counts as a failed search; synthetic storm
      // queries are shed silently.
      ++counters_.queries_shed;
      ASAP_OBS_HOOK(ctx_.obs, on_query_shed(p));
      ASAP_OBS_HOOK(ctx_.obs, trace_shed(t0, p, depth));
      if (!synthetic_query()) stats_.add(rec);
      return;
    }
    // Peak counts admitted queries only, so with a cap it never exceeds
    // the cap — shedding is exactly the mechanism that bounds it.
    counters_.peak_pending_depth = std::max<std::uint64_t>(
        counters_.peak_pending_depth, std::uint64_t{depth} + 1);
    clamp_ttl =
        params_.ttl_clamp_depth > 0 && depth >= params_.ttl_clamp_depth;
    if (clamp_ttl) ++counters_.ttl_clamped;
  }

  // Hash the query terms exactly once; every cache scan below — at the
  // querying node and at every node its ads request visits — reuses the
  // precomputed probe positions.
  const bloom::HashedQuery& query = ctx_.hash_query(terms);

  // Phase 1: local ads-cache lookup + confirmations (paper Table I).
  caches_[p].collect_matches(query, scratch_ads_);
  rank_by_trust(caches_[p], scratch_ads_);
  Seconds resolve = t0;
  std::vector<NodeId> dead;
  Seconds best =
      confirm_round(p, t0, terms, scratch_ads_, rec, resolve, dead);
  const bool local_success = best < kInfTime;
  Seconds done = resolve;

  // Phase 2: if no match was found *or more responses are needed* (paper
  // Table I), request ads from neighbors within h hops, merge, and retry
  // the confirmation round once. Under storm pressure the clamp suppresses
  // this widening entirely (graceful degradation).
  if ((!local_success || rec.results < params_.results_needed) &&
      !clamp_ttl) {
    std::vector<AdPayloadPtr> fresh;
    const Seconds phase_done =
        ads_request_phase(p, resolve, query, &rec, dead, fresh);
    done = std::max(done, phase_done);
    if (repair_pending_since_ < kInfTime && last_request_stored_ > 0) {
      // The refetch restored cache entries after a stale eviction earlier
      // in this query: a completed repair.
      ++counters_.repair_refetches;
      counters_.repair_seconds_sum += phase_done - repair_pending_since_;
      repair_pending_since_ = kInfTime;
    }
    // Skip sources already confirmed (positively or negatively) in the
    // local round — their answer is known.
    std::erase_if(fresh, [&](const AdPayloadPtr& ad) {
      for (const auto& tried : scratch_ads_) {
        if (tried->source == ad->source) return true;
      }
      return false;
    });
    if (!fresh.empty()) {
      // The ads-request merge just put these entries into our cache, so
      // sources the fill gate demoted (or confirms struck) rank last.
      rank_by_trust(caches_[p], fresh);
      Seconds resolve2 = phase_done;
      best = std::min(best, confirm_round(p, phase_done, terms, fresh, rec,
                                          resolve2, dead));
      done = std::max(done, resolve2);
    }
  }

  if (!pending_.empty()) pending_[p].push_back(done);

  rec.success = best < kInfTime;
  rec.local_hit = local_success;
  rec.response_time = rec.success ? best - t0 : 0.0;
  ASAP_OBS_HOOK(ctx_.obs,
                trace_query(t0, p, rec.success, rec.local_hit,
                            rec.response_time, rec.cost_bytes, rec.messages,
                            rec.results));
  if (!synthetic_query()) stats_.add(rec);
}

}  // namespace asap::ads
