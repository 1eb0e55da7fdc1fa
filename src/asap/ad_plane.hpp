// The advertisement plane shared by flat ASAP (asap_protocol.hpp) and
// superpeer ASAP (superpeer.hpp): what an ad costs on the wire, how a cache
// admits it, and how one delivery spreads over the graph in scope.
//
// The protocols differ in *who* caches (every interested node vs. only
// superpeers) and in how a search confirms; everything an ad does between
// leaving its source and landing in a cache lives here, once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "asap/ad.hpp"
#include "asap/ad_cache.hpp"
#include "search/baseline.hpp"
#include "search/context.hpp"
#include "search/propagation.hpp"

namespace asap::ads {

/// Caps on one failure-path ads-request reply: ads in total, and topical
/// (non-term-matching) ads among them.
inline constexpr std::uint32_t kAdsReplyMax = 16;
inline constexpr std::uint32_t kAdsReplyTopicalMax = 8;
/// Confirmations per lookup round.
inline constexpr std::uint32_t kMaxConfirms = 8;

/// One ad as shipped: its kind, the canonical payload it carries (or, for
/// a refresh, announces), and for patch / delta ads the base version and
/// the toggled filter positions.
struct AdMessage {
  AdMessage() = default;
  AdMessage(AdKind k, AdPayloadPtr p, std::uint32_t base = 0,
            std::vector<std::uint32_t> t = {})
      : kind(k),
        payload(std::move(p)),
        base_version(base),
        toggles(std::move(t)) {}

  AdKind kind = AdKind::kFull;
  AdPayloadPtr payload;
  std::uint32_t base_version = 0;
  std::vector<std::uint32_t> toggles;
};

/// Wire size of one ad of `kind` (ad.hpp's per-kind size functions).
Bytes ad_bytes(AdKind kind, const AdPayload& payload, std::size_t toggles,
               const sim::SizeModel& sizes);
inline Bytes ad_bytes(const AdMessage& ad, const sim::SizeModel& sizes) {
  return ad_bytes(ad.kind, *ad.payload, ad.toggles.size(), sizes);
}

/// Ledger category of a standalone ad of `kind` (delta ads ride kPatchAd).
sim::Traffic ad_traffic(AdKind kind);

/// Defense counters admission maintains. Only a cache with trust scoring
/// or a fill gate (AdCache::set_trust_params / set_fill_gate) moves them.
struct AdmissionCounters {
  std::uint64_t trust_strikes = 0;
  std::uint64_t readmissions = 0;
};

/// AdCache::put of a full ad at node `cacher`, with the obs hooks for the
/// store / eviction and the defense bookkeeping for a quarantine exit or a
/// fill-gate demotion. `counters` may be null only for caches that run
/// without trust and fill gate, where neither can happen.
AdCache::PutResult admit_full(search::Ctx& ctx, AdCache& cache, NodeId cacher,
                              const AdPayloadPtr& payload, Seconds t,
                              AdmissionCounters* counters);

/// Applies `ad` to `cache` (node `cacher`'s) at time `t`: a full ad goes
/// through admit_full; a patch, delta or refresh updates the cached entry.
/// Returns kApplied when the ad took effect (for a full ad: was stored).
UpdateOutcome admit(search::Ctx& ctx, AdCache& cache, NodeId cacher,
                    const AdMessage& ad, Seconds t,
                    AdmissionCounters* counters);

/// True iff `n` is a seeded polluter (faults/fault_plan.hpp).
bool is_polluter(const search::Ctx& ctx, NodeId n);

/// Returns `payload` unless `src` is a polluter, in which case it returns a
/// copy with deterministic phantom set bits and counts it in
/// `polluted_ads`. The bits are a pure function of (source, version): every
/// delivery of one version ships the same stuffed filter and no RNG stream
/// is consumed, so arming polluters perturbs nothing else. Polluters only
/// ever ship full ads; a patch or delta would rebuild the canonical filter
/// at cachers and launder the phantom bits away.
AdPayloadPtr maybe_pollute(const search::Ctx& ctx, NodeId src,
                           AdPayloadPtr payload, std::uint64_t& polluted_ads);

/// Sorts by source and keeps the newest version of each (two neighbors may
/// return the same source's ad).
void dedup_by_source(std::vector<AdPayloadPtr>& ads);

/// Trust-weighted confirm order: the most trusted sources first, so the
/// confirm budget is not burned on demoted ones. Stable, so equal trust
/// keeps the cache's deterministic scan order. No-op with trust off.
void rank_by_trust(const AdCache& cache, std::vector<AdPayloadPtr>& ads);

/// How one delivery spreads over the graph in scope.
struct SpreadParams {
  search::Scheme scheme = search::Scheme::kRandomWalk;
  /// Minimum parallel walkers of a random-walk delivery.
  std::uint32_t walkers = 5;
  /// M0: one delivery at scale 1 gets |T(a)| * M0 messages (RW, GSA).
  std::uint64_t budget_unit_m0 = 3'000;
  /// Cap on one walk; larger budgets run more walkers in parallel.
  std::uint64_t max_walk_hops = 600;
  /// RW next-hop preference for neighbors interested in the ad's topics;
  /// 1.0 = unbiased.
  double interest_bias = 1.0;
};

/// Message budget of one RW / GSA delivery: scale * |T(a)| * M0, and at
/// least one message per walker.
std::uint64_t delivery_budget(const SpreadParams& p, std::size_t topics,
                              double scale);

/// Spreads one delivery from `origin` by `p.scheme`: a TTL-`flood_ttl`
/// flood, budgeted random (or interest-biased) walks, or GSA. `topics` are
/// the ad's topics, which size the budget and steer a biased walk. `visit`
/// is the propagation kernels' per-arrival callback (search/propagation.hpp)
/// and stays a template argument, so the hop loop inlines it.
template <typename VisitFn>
search::PropagationStats disseminate(search::Ctx& ctx, const SpreadParams& p,
                                     NodeId origin, Seconds when,
                                     std::uint32_t flood_ttl, double scale,
                                     const std::vector<TopicId>& topics,
                                     Bytes msg_size, sim::Traffic cat,
                                     VisitFn&& visit) {
  switch (p.scheme) {
    case search::Scheme::kFlooding:
      return search::flood(ctx, origin, when, flood_ttl, msg_size, cat, visit);
    case search::Scheme::kRandomWalk: {
      const auto budget = delivery_budget(p, topics.size(), scale);
      // Enough walkers that no single walk exceeds max_walk_hops.
      const auto walkers = static_cast<std::uint32_t>(std::max<std::uint64_t>(
          p.walkers, (budget + p.max_walk_hops - 1) / p.max_walk_hops));
      const auto per_walker = std::max<std::uint64_t>(1, budget / walkers);
      if (p.interest_bias > 1.0) {
        auto weight = [&](NodeId v) {
          return topics_overlap(topics, ctx.model.interests(v))
                     ? p.interest_bias
                     : 1.0;
        };
        return search::biased_walk(ctx, origin, when, walkers, per_walker,
                                   msg_size, cat, weight, visit);
      }
      return search::random_walk(ctx, origin, when, walkers, per_walker,
                                 msg_size, cat, visit);
    }
    case search::Scheme::kGsa:
      return search::gsa(ctx, origin, when,
                         delivery_budget(p, topics.size(), scale), msg_size,
                         cat, visit);
  }
  return {};
}

}  // namespace asap::ads
