#include "asap/ad_plane.hpp"

#include <cmath>

#include "common/error.hpp"

namespace asap::ads {

Bytes ad_bytes(AdKind kind, const AdPayload& payload, std::size_t toggles,
               const sim::SizeModel& sizes) {
  switch (kind) {
    case AdKind::kFull:
      return full_ad_bytes(payload, sizes);
    case AdKind::kPatch:
      return patch_ad_bytes(toggles, payload.topics.size(), sizes);
    case AdKind::kRefresh:
      return refresh_ad_bytes(sizes);
    case AdKind::kDelta:
      return delta_ad_bytes(toggles, payload.topics.size(), sizes);
  }
  return 0;
}

sim::Traffic ad_traffic(AdKind kind) {
  switch (kind) {
    case AdKind::kFull:
      return sim::Traffic::kFullAd;
    case AdKind::kPatch:
    case AdKind::kDelta:
      return sim::Traffic::kPatchAd;
    case AdKind::kRefresh:
      return sim::Traffic::kRefreshAd;
  }
  return sim::Traffic::kFullAd;
}

AdCache::PutResult admit_full(search::Ctx& ctx, AdCache& cache, NodeId cacher,
                              const AdPayloadPtr& payload, Seconds t,
                              AdmissionCounters* counters) {
  const auto r = cache.put(payload, t, ctx.rng);
  if (r.stored) ASAP_OBS_HOOK(ctx.obs, on_ad_stored(cacher));
  if (r.evicted) ASAP_OBS_HOOK(ctx.obs, on_ad_evicted(cacher));
  const NodeId source = payload->source;
  if (r.readmitted) {
    ASAP_DCHECK(counters != nullptr);
    ++counters->readmissions;
    ASAP_OBS_HOOK(ctx.obs, on_quarantine_exit(cacher));
    ASAP_OBS_HOOK(ctx.obs, trace_quarantine(t, cacher, source, "exit"));
  }
  if (r.implausible) {
    // A fill-gate demotion is a trust strike earned by the ad itself — no
    // confirm probe was needed. The entry stays cached at zero trust
    // (demote-and-verify); quarantine follows only if it wastes a probe.
    ASAP_DCHECK(counters != nullptr);
    ++counters->trust_strikes;
    ASAP_OBS_HOOK(ctx.obs, on_trust_strike(cacher));
    ASAP_OBS_HOOK(ctx.obs,
                  trace_trust_strike(t, cacher, source, "implausible"));
  }
  return r;
}

UpdateOutcome admit(search::Ctx& ctx, AdCache& cache, NodeId cacher,
                    const AdMessage& ad, Seconds t,
                    AdmissionCounters* counters) {
  const NodeId source = ad.payload->source;
  UpdateOutcome outcome = UpdateOutcome::kMissing;
  switch (ad.kind) {
    case AdKind::kFull:
      return admit_full(ctx, cache, cacher, ad.payload, t, counters).stored
                 ? UpdateOutcome::kApplied
                 : UpdateOutcome::kIgnoredStale;
    case AdKind::kPatch:
      outcome = cache.apply_patch(source, ad.base_version, ad.payload, t);
      break;
    case AdKind::kDelta:
      outcome = cache.apply_delta(source, ad.base_version, ad.toggles,
                                  ad.payload, t);
      break;
    case AdKind::kRefresh:
      // A refresh only touches or invalidates; it never stores.
      outcome = cache.on_refresh(source, ad.payload->version, t);
      if (outcome == UpdateOutcome::kInvalidated) {
        ASAP_OBS_HOOK(ctx.obs, on_ad_invalidated(cacher));
      }
      return outcome;
  }
  if (outcome == UpdateOutcome::kApplied) {
    ASAP_OBS_HOOK(ctx.obs, on_ad_stored(cacher));
  } else if (outcome == UpdateOutcome::kInvalidated) {
    ASAP_OBS_HOOK(ctx.obs, on_ad_invalidated(cacher));
  }
  return outcome;
}

bool is_polluter(const search::Ctx& ctx, NodeId n) {
  return ctx.faults != nullptr && ctx.faults->is_polluter(n);
}

AdPayloadPtr maybe_pollute(const search::Ctx& ctx, NodeId src,
                           AdPayloadPtr payload, std::uint64_t& polluted_ads) {
  if (!is_polluter(ctx, src)) return payload;
  auto polluted = std::make_shared<AdPayload>(*payload);
  SplitMix64 sm(0xC6A4A7935BD1E995ULL ^
                (static_cast<std::uint64_t>(src) << 32) ^ payload->version);
  auto& filter = polluted->filter;
  const std::uint32_t bits = filter.params().bits;
  const std::uint32_t stuff = ctx.faults->plan().config().pollution_bits;
  for (std::uint32_t i = 0; i < stuff && bits > 0; ++i) {
    const auto pos = static_cast<std::uint32_t>(sm.next() % bits);
    if (!filter.bit(pos)) filter.toggle(pos);
  }
  ++polluted_ads;
  return polluted;
}

void dedup_by_source(std::vector<AdPayloadPtr>& ads) {
  std::sort(ads.begin(), ads.end(),
            [](const AdPayloadPtr& a, const AdPayloadPtr& b) {
              if (a->source != b->source) return a->source < b->source;
              return a->version > b->version;
            });
  ads.erase(std::unique(ads.begin(), ads.end(),
                        [](const AdPayloadPtr& a, const AdPayloadPtr& b) {
                          return a->source == b->source;
                        }),
            ads.end());
}

void rank_by_trust(const AdCache& cache, std::vector<AdPayloadPtr>& ads) {
  if (!cache.trust_enabled() || ads.size() < 2) return;
  std::stable_sort(ads.begin(), ads.end(),
                   [&](const AdPayloadPtr& a, const AdPayloadPtr& b) {
                     return cache.trust_of(a->source) >
                            cache.trust_of(b->source);
                   });
}

std::uint64_t delivery_budget(const SpreadParams& p, std::size_t topics,
                              double scale) {
  const auto t = std::max<std::size_t>(1, topics);
  const double raw = scale * static_cast<double>(t * p.budget_unit_m0);
  return std::max<std::uint64_t>(p.walkers,
                                 static_cast<std::uint64_t>(std::llround(raw)));
}

}  // namespace asap::ads
