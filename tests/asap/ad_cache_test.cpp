#include "asap/ad_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>

namespace asap::ads {
namespace {

AdPayloadPtr make_ad(NodeId src, std::uint32_t version,
                     std::vector<KeywordId> keys = {},
                     std::vector<TopicId> topics = {0}) {
  bloom::BloomFilter f;
  for (auto k : keys) f.insert(k);
  return std::make_shared<const AdPayload>(src, version, std::move(f),
                                           std::move(topics));
}

TEST(AdCache, PutAndFind) {
  AdCache c(10);
  Rng rng(1);
  c.put(make_ad(5, 1), 1.0, rng);
  ASSERT_NE(c.find(5), nullptr);
  EXPECT_EQ(c.find(5)->ad->version, 1u);
  EXPECT_EQ(c.find(6), nullptr);
  EXPECT_EQ(c.size(), 1u);
}

TEST(AdCache, PutNewerVersionReplaces) {
  AdCache c(10);
  Rng rng(2);
  c.put(make_ad(5, 2), 1.0, rng);
  c.put(make_ad(5, 3), 2.0, rng);
  EXPECT_EQ(c.find(5)->ad->version, 3u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(AdCache, PutOlderVersionDoesNotDowngrade) {
  AdCache c(10);
  Rng rng(3);
  c.put(make_ad(5, 4), 1.0, rng);
  c.put(make_ad(5, 2), 2.0, rng);  // a late walker delivers a stale ad
  EXPECT_EQ(c.find(5)->ad->version, 4u);
}

TEST(AdCache, CapacityEnforcedViaEviction) {
  AdCache c(8);
  Rng rng(4);
  for (NodeId s = 0; s < 100; ++s) {
    c.put(make_ad(s, 1), static_cast<double>(s), rng);
    EXPECT_LE(c.size(), 8u);
  }
  EXPECT_EQ(c.size(), 8u);
}

TEST(AdCache, EvictionPrefersStaleEntries) {
  AdCache c(16);
  Rng rng(5);
  // One entry touched recently, the rest stale; insert many more and check
  // the fresh one survives (sampled LRU is probabilistic, so give the
  // fresh entry a huge recency gap and accept a tiny failure chance by
  // fixing the seed).
  for (NodeId s = 0; s < 16; ++s) c.put(make_ad(s, 1), 0.0, rng);
  c.touch(7, 1'000.0);
  for (NodeId s = 100; s < 140; ++s) {
    c.put(make_ad(s, 1), 10.0, rng);
  }
  EXPECT_NE(c.find(7), nullptr) << "most-recently-used entry was evicted";
}

TEST(AdCache, ApplyPatchSwapsMatchingBase) {
  AdCache c(10);
  Rng rng(6);
  c.put(make_ad(5, 1, {10, 20}), 1.0, rng);
  auto next = make_ad(5, 2, {10, 20, 30});
  EXPECT_EQ(c.apply_patch(5, 1, next, 2.0), UpdateOutcome::kApplied);
  EXPECT_EQ(c.find(5)->ad->version, 2u);
  EXPECT_TRUE(c.find(5)->ad->filter.contains(30));
}

TEST(AdCache, ApplyPatchVersionMismatchInvalidates) {
  AdCache c(10);
  Rng rng(7);
  c.put(make_ad(5, 1), 1.0, rng);
  auto v4 = make_ad(5, 4);
  // Cached version 1, patch base 3: the entry is hopelessly stale.
  EXPECT_EQ(c.apply_patch(5, 3, v4, 2.0), UpdateOutcome::kInvalidated);
  EXPECT_EQ(c.find(5), nullptr);
}

TEST(AdCache, ApplyPatchIgnoresUnknownSourceAndNewerCache) {
  AdCache c(10);
  Rng rng(8);
  EXPECT_EQ(c.apply_patch(9, 1, make_ad(9, 2), 1.0),
            UpdateOutcome::kMissing);
  EXPECT_EQ(c.find(9), nullptr);
  // Cache already at version 5; an old patch (base 2 -> 3) must not erase.
  c.put(make_ad(5, 5), 1.0, rng);
  EXPECT_EQ(c.apply_patch(5, 2, make_ad(5, 3), 2.0),
            UpdateOutcome::kIgnoredStale);
  EXPECT_EQ(c.find(5)->ad->version, 5u);
}

TEST(AdCache, RefreshTouchesMatchingVersion) {
  AdCache c(10);
  Rng rng(9);
  c.put(make_ad(5, 3), 1.0, rng);
  EXPECT_EQ(c.on_refresh(5, 3, 50.0), UpdateOutcome::kApplied);
  EXPECT_DOUBLE_EQ(c.find(5)->touch, 50.0);
}

TEST(AdCache, RefreshWithNewerVersionInvalidates) {
  AdCache c(10);
  Rng rng(10);
  c.put(make_ad(5, 3), 1.0, rng);
  EXPECT_EQ(c.on_refresh(5, 7, 2.0), UpdateOutcome::kInvalidated);
  EXPECT_EQ(c.find(5), nullptr);
}

TEST(AdCache, RefreshWithOlderVersionKeepsEntry) {
  AdCache c(10);
  Rng rng(11);
  c.put(make_ad(5, 3), 1.0, rng);
  // A delayed beacon for an older version is ignored.
  EXPECT_EQ(c.on_refresh(5, 2, 2.0), UpdateOutcome::kIgnoredStale);
  ASSERT_NE(c.find(5), nullptr);
  EXPECT_EQ(c.find(5)->ad->version, 3u);
}

TEST(AdCache, RefreshOfUnknownSourceIsMissing) {
  AdCache c(10);
  EXPECT_EQ(c.on_refresh(42, 1, 1.0), UpdateOutcome::kMissing);
}

TEST(AdCache, EraseRemovesEntry) {
  AdCache c(10);
  Rng rng(12);
  c.put(make_ad(1, 1), 1.0, rng);
  c.put(make_ad(2, 1), 1.0, rng);
  EXPECT_TRUE(c.erase(1));
  EXPECT_FALSE(c.erase(1));
  EXPECT_EQ(c.find(1), nullptr);
  ASSERT_NE(c.find(2), nullptr);
  EXPECT_EQ(c.size(), 1u);
}

TEST(AdCache, CollectMatchesFindsTermMatchingAds) {
  AdCache c(10);
  Rng rng(13);
  c.put(make_ad(1, 1, {100, 200}), 1.0, rng);
  c.put(make_ad(2, 1, {100}), 1.0, rng);
  c.put(make_ad(3, 1, {999}), 1.0, rng);
  std::vector<AdPayloadPtr> out;
  const std::vector<KeywordId> terms{100, 200};
  c.collect_matches(terms, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->source, 1u);
  const std::vector<KeywordId> single{100};
  c.collect_matches(single, out);
  EXPECT_EQ(out.size(), 2u);
  c.collect_matches(std::span<const KeywordId>{}, out);
  EXPECT_TRUE(out.empty());
}

TEST(AdCache, CollectForReplyOrdersTermMatchesFirst) {
  AdCache c(20);
  Rng rng(14);
  c.put(make_ad(1, 1, {100}, {0}), 1.0, rng);   // term match
  c.put(make_ad(2, 1, {999}, {0}), 1.0, rng);   // topical only
  c.put(make_ad(3, 1, {999}, {5}), 1.0, rng);   // unrelated topic
  std::vector<AdPayloadPtr> out;
  const std::vector<KeywordId> terms{100};
  const std::vector<TopicId> interests{0};
  c.collect_for_reply(terms, interests, 10, 10, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0]->source, 1u);
  EXPECT_EQ(out[1]->source, 2u);
}

TEST(AdCache, CollectForReplyRespectsCaps) {
  AdCache c(64);
  Rng rng(15);
  for (NodeId s = 0; s < 40; ++s) c.put(make_ad(s, 1, {7}, {0}), 1.0, rng);
  std::vector<AdPayloadPtr> out;
  const std::vector<KeywordId> terms{7};
  const std::vector<TopicId> interests{0};
  c.collect_for_reply(terms, interests, 16, 8, out);
  EXPECT_EQ(out.size(), 16u);  // total cap binds
  // Topical-only flow: no terms, topical cap binds.
  c.collect_for_reply(std::span<const KeywordId>{}, interests, 64, 5, out);
  EXPECT_EQ(out.size(), 5u);
}

TEST(AdCache, ZeroCapacityDisablesCaching) {
  AdCache c(0);
  Rng rng(17);
  const auto r = c.put(make_ad(5, 1), 1.0, rng);
  EXPECT_FALSE(r.stored);
  EXPECT_FALSE(r.evicted);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.find(5), nullptr);
  // The no-op put must not draw from the RNG (digest stability).
  Rng replay(17);
  EXPECT_EQ(rng.next_u64(), replay.next_u64());
}

TEST(AdCache, PutReportsStoredAndEvicted) {
  AdCache c(2);
  Rng rng(18);
  auto r = c.put(make_ad(1, 1), 1.0, rng);
  EXPECT_TRUE(r.stored);
  EXPECT_FALSE(r.evicted);
  r = c.put(make_ad(2, 1), 2.0, rng);
  EXPECT_TRUE(r.stored);
  EXPECT_FALSE(r.evicted);
  // Third distinct source overflows the capacity-2 cache.
  r = c.put(make_ad(3, 1), 3.0, rng);
  EXPECT_TRUE(r.stored);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(c.size(), 2u);
  // A stale re-put neither stores nor evicts.
  ASSERT_NE(c.find(3), nullptr);
  c.put(make_ad(3, 5), 4.0, rng);
  r = c.put(make_ad(3, 2), 5.0, rng);
  EXPECT_FALSE(r.stored);
  EXPECT_FALSE(r.evicted);
  EXPECT_EQ(c.find(3)->ad->version, 5u);
}

TEST(AdCache, SmallCacheEvictsExactLru) {
  // At or below the sample width the cache scans for the true LRU
  // entry instead of sampling, so eviction is deterministic and must
  // not depend on the RNG at all.
  AdCache c(4);
  Rng rng(19);
  c.put(make_ad(10, 1), 5.0, rng);
  c.put(make_ad(11, 1), 1.0, rng);  // stalest
  c.put(make_ad(12, 1), 9.0, rng);
  c.put(make_ad(13, 1), 7.0, rng);
  const auto r = c.put(make_ad(14, 1), 10.0, rng);
  EXPECT_TRUE(r.stored);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(c.find(11), nullptr) << "true LRU entry must be evicted";
  EXPECT_NE(c.find(10), nullptr);
  EXPECT_NE(c.find(12), nullptr);
  EXPECT_NE(c.find(13), nullptr);
  EXPECT_NE(c.find(14), nullptr);

  // Identical inserts with a different RNG make the same choice.
  AdCache c2(4);
  Rng other(991);
  c2.put(make_ad(10, 1), 5.0, other);
  c2.put(make_ad(11, 1), 1.0, other);
  c2.put(make_ad(12, 1), 9.0, other);
  c2.put(make_ad(13, 1), 7.0, other);
  c2.put(make_ad(14, 1), 10.0, other);
  EXPECT_EQ(c2.find(11), nullptr);
  EXPECT_NE(c2.find(10), nullptr);
}

TEST(AdCache, TimeoutStrikesAccumulateAndReset) {
  // The strike-chain guard is off by default, so every timeout counts,
  // even ones from overlapping confirm attempt chains.
  AdCache c(10);
  Rng rng(20);
  c.put(make_ad(7, 1), 1.0, rng);
  EXPECT_EQ(c.record_timeout(7, 1.0, 3.0), 1u);
  EXPECT_EQ(c.record_timeout(7, 2.0, 4.0), 2u);
  EXPECT_EQ(c.find(7)->timeout_strikes, 2u);
  // A confirm reply proves the source alive: strikes clear.
  c.reset_timeouts(7);
  EXPECT_EQ(c.find(7)->timeout_strikes, 0u);
  EXPECT_EQ(c.record_timeout(7, 5.0, 6.0), 1u);
  // Sources that are not cached cannot strike out.
  EXPECT_EQ(c.record_timeout(99, 5.0, 6.0), 0u);
  c.erase(7);
  EXPECT_EQ(c.record_timeout(7, 7.0, 8.0), 0u);
}

TEST(AdCache, FreshAdClearsTimeoutStrikes) {
  AdCache c(10);
  Rng rng(21);
  c.put(make_ad(7, 1), 1.0, rng);
  c.record_timeout(7, 1.0, 1.5);
  c.record_timeout(7, 1.0, 1.5);
  // A newer ad from the source is proof of life; the strike count must
  // not survive and evict the replacement.
  c.put(make_ad(7, 2), 2.0, rng);
  EXPECT_EQ(c.find(7)->timeout_strikes, 0u);
  // A stale re-put is not stored and proves nothing.
  c.record_timeout(7, 2.0, 2.5);
  c.put(make_ad(7, 1), 3.0, rng);
  EXPECT_EQ(c.find(7)->timeout_strikes, 1u);
}

// Regression: the confirm path used to erase a struck-out stale entry with
// plain erase(), and a walker already in flight would re-admit the very
// same stale ad in the same tick — the entry then had to strike out all
// over again. erase_stale() must block re-admission until the backoff
// expires.
TEST(AdCache, EraseStaleBlocksReadmissionUntilBackoffExpires) {
  AdCache c(10);
  c.set_readmit_backoff(30.0);
  Rng rng(22);
  c.put(make_ad(7, 3), 1.0, rng);
  EXPECT_TRUE(c.erase_stale(7, 100.0));
  EXPECT_EQ(c.find(7), nullptr);
  EXPECT_TRUE(c.readmit_blocked(7, 100.0));

  // The in-flight stale ad arrives a beat later: silently dropped.
  auto res = c.put(make_ad(7, 3), 100.5, rng);
  EXPECT_FALSE(res.stored);
  EXPECT_EQ(c.find(7), nullptr);

  // Even a *newer* version is refused during the window — the source is
  // suspected dead, and re-learning waits out the backoff.
  res = c.put(make_ad(7, 4), 115.0, rng);
  EXPECT_FALSE(res.stored);
  EXPECT_TRUE(c.readmit_blocked(7, 129.9));

  // Once the window closes the source is welcome again.
  EXPECT_FALSE(c.readmit_blocked(7, 130.1));
  res = c.put(make_ad(7, 4), 130.1, rng);
  EXPECT_TRUE(res.stored);
  ASSERT_NE(c.find(7), nullptr);
  EXPECT_EQ(c.find(7)->ad->version, 4u);
}

TEST(AdCache, EraseStaleBackoffIsPerSource) {
  AdCache c(10);
  c.set_readmit_backoff(10.0);
  Rng rng(23);
  c.put(make_ad(7, 1), 1.0, rng);
  c.put(make_ad(8, 1), 1.0, rng);
  c.erase_stale(7, 50.0);
  // Only the struck source is blocked; its neighbor stores normally.
  EXPECT_TRUE(c.readmit_blocked(7, 55.0));
  EXPECT_FALSE(c.readmit_blocked(8, 55.0));
  EXPECT_TRUE(c.put(make_ad(8, 2), 55.0, rng).stored);
  EXPECT_FALSE(c.put(make_ad(7, 2), 55.0, rng).stored);
}

TEST(AdCache, ZeroBackoffDegeneratesToPlainErase) {
  AdCache c(10);  // default: readmit_backoff == 0 (vanilla behavior)
  Rng rng(24);
  c.put(make_ad(7, 1), 1.0, rng);
  EXPECT_TRUE(c.erase_stale(7, 50.0));
  EXPECT_FALSE(c.readmit_blocked(7, 50.0));
  // Re-admission is immediate, exactly like the legacy erase() path —
  // this is what keeps vanilla digests bit-identical.
  EXPECT_TRUE(c.put(make_ad(7, 1), 50.0, rng).stored);
}

TEST(AdCacheTrust, OffByDefaultAndInert) {
  AdCache c(10);
  Rng rng(30);
  c.put(make_ad(5, 1), 1.0, rng);
  EXPECT_FALSE(c.trust_enabled());
  EXPECT_DOUBLE_EQ(c.trust_of(5), 1.0);
  // With trust off, strikes and rewards are no-ops: the entry survives
  // and no quarantine state is ever allocated (vanilla digests depend on
  // put() never paying a quarantine lookup).
  EXPECT_FALSE(c.record_strike(5, 2.0));
  c.record_reward(5);
  EXPECT_NE(c.find(5), nullptr);
  EXPECT_FALSE(c.quarantined(5, 2.0));
}

TEST(AdCacheTrust, RewardAndStrikeMoveTrustAsymptotically) {
  AdCache c(10);
  c.set_trust_params(/*reward=*/0.5, /*decay=*/0.5, /*threshold=*/0.1,
                     /*backoff=*/100.0);
  Rng rng(31);
  c.put(make_ad(5, 1), 1.0, rng);
  EXPECT_DOUBLE_EQ(c.trust_of(5), 1.0);  // entries start fully trusted
  c.record_reward(5);                    // reward at 1.0 is a fixed point
  EXPECT_DOUBLE_EQ(c.trust_of(5), 1.0);
  EXPECT_FALSE(c.record_strike(5, 2.0));  // 0.5, above threshold
  EXPECT_DOUBLE_EQ(c.trust_of(5), 0.5);
  EXPECT_FALSE(c.record_strike(5, 3.0));  // 0.25
  EXPECT_DOUBLE_EQ(c.trust_of(5), 0.25);
  c.record_reward(5);  // 0.25 + 0.5 * (1 - 0.25) = 0.625
  EXPECT_DOUBLE_EQ(c.trust_of(5), 0.625);
  // Unknown sources are neutral, not distrusted.
  EXPECT_DOUBLE_EQ(c.trust_of(99), 1.0);
}

TEST(AdCacheTrust, CrossingThresholdQuarantinesAndBlocksPut) {
  AdCache c(10);
  c.set_trust_params(0.3, /*decay=*/0.4, /*threshold=*/0.2,
                     /*backoff=*/100.0);
  Rng rng(32);
  c.put(make_ad(5, 1), 1.0, rng);
  EXPECT_FALSE(c.record_strike(5, 2.0));  // 0.4
  EXPECT_TRUE(c.record_strike(5, 3.0));   // 0.16 < 0.2: quarantined
  EXPECT_EQ(c.find(5), nullptr) << "quarantine must erase the entry";
  EXPECT_TRUE(c.quarantined(5, 3.0));
  EXPECT_TRUE(c.quarantined(5, 102.9));  // until 3.0 + 100.0
  // Puts inside the window are dropped silently.
  EXPECT_FALSE(c.put(make_ad(5, 2), 50.0, rng).stored);
  EXPECT_EQ(c.find(5), nullptr);
  // Sentence served: the next put re-admits and reports it.
  EXPECT_FALSE(c.quarantined(5, 103.1));
  const auto r = c.put(make_ad(5, 2), 103.1, rng);
  EXPECT_TRUE(r.stored);
  EXPECT_TRUE(r.readmitted);
  EXPECT_NE(c.find(5), nullptr);
  // A re-admitted entry starts fully trusted again (fresh evidence).
  EXPECT_DOUBLE_EQ(c.trust_of(5), 1.0);
}

TEST(AdCacheTrust, RepeatOffenderBackoffDoubles) {
  AdCache c(10);
  c.set_trust_params(0.3, /*decay=*/0.1, /*threshold=*/0.2,
                     /*backoff=*/100.0);
  Rng rng(33);
  c.put(make_ad(5, 1), 1.0, rng);
  EXPECT_TRUE(c.record_strike(5, 10.0));  // first offense: 100 s
  EXPECT_TRUE(c.quarantined(5, 109.0));
  EXPECT_FALSE(c.quarantined(5, 110.5));
  ASSERT_TRUE(c.put(make_ad(5, 2), 111.0, rng).readmitted);
  EXPECT_TRUE(c.record_strike(5, 120.0));  // second offense: 200 s
  EXPECT_TRUE(c.quarantined(5, 319.0));
  EXPECT_FALSE(c.quarantined(5, 320.5));
}

TEST(AdCacheTrust, QuarantineIsPerSource) {
  AdCache c(10);
  c.set_trust_params(0.3, /*decay=*/0.1, /*threshold=*/0.2, 100.0);
  Rng rng(34);
  c.put(make_ad(5, 1), 1.0, rng);
  c.put(make_ad(6, 1), 1.0, rng);
  EXPECT_TRUE(c.record_strike(5, 10.0));
  EXPECT_TRUE(c.quarantined(5, 50.0));
  EXPECT_FALSE(c.quarantined(6, 50.0));
  EXPECT_NE(c.find(6), nullptr);
  EXPECT_TRUE(c.put(make_ad(6, 2), 50.0, rng).stored);
}

// Satellite regression: the confirm-retry chain used to charge one
// logical timeout twice — once per retry attempt and once more when
// erase_stale re-opened the window — so a single silent source burned
// through stale_timeout_strikes twice as fast as configured. With the
// chain guard on, any chain that started before the last counted chain
// ended is the same evidence window and must not increment the count.
TEST(AdCacheTrust, StrikeChainGuardCountsOnePerConfirmChain) {
  AdCache c(10);
  c.set_strike_per_chain(true);
  Rng rng(35);
  c.put(make_ad(5, 1), 1.0, rng);
  EXPECT_EQ(c.record_timeout(5, /*chain_start=*/2.0, /*chain_end=*/6.0), 1u);
  // A retry whose chain started inside the counted window: same chain.
  EXPECT_EQ(c.record_timeout(5, 4.0, 9.0), 1u);
  EXPECT_EQ(c.record_timeout(5, 5.9, 7.0), 1u);
  // A chain that started after the counted window ended is new evidence.
  EXPECT_EQ(c.record_timeout(5, 6.5, 10.0), 2u);
  // A confirm reply still resets the count.
  c.reset_timeouts(5);
  EXPECT_EQ(c.record_timeout(5, 20.0, 22.0), 1u);
}

TEST(AdCacheTrust, StrikeChainGuardOffKeepsLegacyDoubleCount) {
  AdCache c(10);  // guard defaults off: every call counts (legacy)
  Rng rng(36);
  c.put(make_ad(5, 1), 1.0, rng);
  EXPECT_EQ(c.record_timeout(5, 2.0, 6.0), 1u);
  EXPECT_EQ(c.record_timeout(5, 4.0, 9.0), 2u);
  EXPECT_EQ(c.record_timeout(5, 5.0, 9.5), 3u);
}

/// An ad whose filter is stuffed past the plausibility gate's fill ratio.
AdPayloadPtr make_stuffed_ad(NodeId src, std::uint32_t version,
                             double target_fill) {
  bloom::BloomFilter f;
  const std::uint32_t bits = f.params().bits;
  const auto want = static_cast<std::uint32_t>(target_fill * bits);
  for (std::uint32_t pos = 0; pos < want; ++pos) {
    if (!f.bit(pos)) f.toggle(pos);
  }
  return std::make_shared<const AdPayload>(src, version, std::move(f),
                                           std::vector<TopicId>{0});
}

TEST(AdCacheTrust, FillGateDemotesStuffedAdsToZeroTrust) {
  AdCache c(10);
  c.set_trust_params(0.3, 0.5, 0.2, 120.0);
  c.set_fill_gate(0.65);
  Rng rng(37);
  // An honest sparse ad sails through, fully trusted.
  EXPECT_TRUE(c.put(make_ad(5, 1, {1, 2, 3}), 1.0, rng).stored);
  EXPECT_EQ(c.trust_of(5), 1.0);
  // A stuffed ad (fill 0.8 > gate 0.65) is demoted, not dropped: it stays
  // cached (the polluter's real content remains reachable) but at zero
  // trust, so ranking sends confirm probes elsewhere first.
  const auto r = c.put(make_stuffed_ad(5, 2, 0.8), 2.0, rng);
  EXPECT_TRUE(r.implausible);
  EXPECT_TRUE(r.stored);
  ASSERT_NE(c.find(5), nullptr);
  EXPECT_EQ(c.trust_of(5), 0.0);
  EXPECT_FALSE(c.quarantined(5, 3.0));
  // The first wasted confirm probe then quarantines immediately (trust is
  // already below any threshold).
  EXPECT_TRUE(c.record_strike(5, 3.0));
  EXPECT_TRUE(c.quarantined(5, 4.0));
  EXPECT_EQ(c.find(5), nullptr);
  // Another source with honest fill is unaffected.
  EXPECT_TRUE(c.put(make_ad(6, 1, {9}), 4.0, rng).stored);
  EXPECT_EQ(c.trust_of(6), 1.0);
}

TEST(AdCacheTrust, FillGateVerdictIsAboutTheSourceNotTheAdInstance) {
  AdCache c(10);
  c.set_trust_params(0.3, 0.5, 0.2, 120.0);
  c.set_fill_gate(0.65);
  Rng rng(38);
  EXPECT_TRUE(c.put(make_ad(5, 3, {1, 2}), 1.0, rng).stored);
  // A *stale* stuffed delivery is not stored, but still collapses trust:
  // the gate's evidence concerns the source's behaviour.
  const auto r = c.put(make_stuffed_ad(5, 2, 0.8), 2.0, rng);
  EXPECT_TRUE(r.implausible);
  EXPECT_FALSE(r.stored);
  EXPECT_EQ(c.find(5)->ad->version, 3u);
  EXPECT_EQ(c.trust_of(5), 0.0);
}

TEST(AdCacheTrust, FillGateOffAdmitsStuffedAdsFullyTrusted) {
  AdCache c(10);  // gate defaults off: legacy admission, full trust
  c.set_trust_params(0.3, 0.5, 0.2, 120.0);
  Rng rng(39);
  EXPECT_FALSE(c.put(make_stuffed_ad(5, 1, 0.9), 1.0, rng).implausible);
  EXPECT_EQ(c.trust_of(5), 1.0);
}

}  // namespace
}  // namespace asap::ads
