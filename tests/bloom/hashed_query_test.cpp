// HashedQuery / HashedKey: the one-shot query hashing fast path must be
// observationally identical to the legacy hash-per-probe membership tests.
#include "bloom/hashed_query.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"

namespace asap::bloom {
namespace {

TEST(HashedKey, PositionsMatchFilterPositions) {
  const BloomParams params;
  BloomFilter f(params);
  Rng rng(1);
  std::vector<std::uint32_t> expected;
  for (int i = 0; i < 5'000; ++i) {
    const std::uint64_t key = rng.next_u64();
    const HashedKey hk(key, params);
    f.positions(key, expected);
    ASSERT_EQ(std::vector<std::uint32_t>(hk.positions().begin(),
                                         hk.positions().end()),
              expected)
        << "key " << key;
  }
}

TEST(HashedKey, FoldMaskCoversItsPositions) {
  const BloomParams params;
  Rng rng(2);
  for (int i = 0; i < 2'000; ++i) {
    const HashedKey hk(rng.next_u64(), params);
    std::uint64_t mask = 0;
    for (const auto pos : hk.positions()) mask |= 1ULL << (pos & 63);
    EXPECT_EQ(hk.fold_mask(), mask);
  }
}

TEST(HashedKey, PresentInMatchesContains) {
  const BloomParams params;
  BloomFilter f(params);
  Rng rng(3);
  std::vector<std::uint64_t> inserted;
  for (int i = 0; i < 400; ++i) {
    inserted.push_back(rng.next_u64());
    f.insert(inserted.back());
  }
  for (const auto key : inserted) {
    EXPECT_TRUE(HashedKey(key, params).present_in(f.words()));
  }
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t key = rng.next_u64();
    EXPECT_EQ(HashedKey(key, params).present_in(f.words()), f.contains(key))
        << "key " << key;
  }
}

TEST(HashedKey, PrefilterIsSound) {
  // "key in filter" must imply "fold mask covered by filter fold" — the
  // prefilter may pass non-members, never reject members.
  const BloomParams params;
  BloomFilter f(params);
  Rng rng(4);
  for (int i = 0; i < 300; ++i) f.insert(rng.next_u64());
  const std::uint64_t fold = f.fold();
  for (int i = 0; i < 20'000; ++i) {
    const HashedKey hk(rng.next_u64(), params);
    if (hk.present_in(f.words())) {
      EXPECT_EQ(fold & hk.fold_mask(), hk.fold_mask());
    }
  }
}

TEST(HashedQuery, MatchesEqualsContainsAll) {
  const BloomParams params;
  Rng rng(5);
  for (int round = 0; round < 50; ++round) {
    BloomFilter f(params);
    std::vector<KeywordId> pool;
    for (int i = 0; i < 40; ++i) {
      pool.push_back(static_cast<KeywordId>(rng.below(5'000)));
    }
    for (std::size_t i = 0; i < pool.size() / 2; ++i) f.insert(pool[i]);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<KeywordId> terms;
      const std::size_t n = rng.below(4);  // 0..3 terms, like real queries
      for (std::size_t t = 0; t < n; ++t) {
        terms.push_back(pool[rng.below(pool.size())]);
      }
      const HashedQuery q(terms, params);
      EXPECT_EQ(q.matches(f), f.contains_all(terms));
    }
  }
}

/// A random filter of 1..60 keys from [0, 100000) and a 1..5-term query
/// drawing each term half the time from the inserted keys, half at random.
struct RandomCase {
  BloomFilter filter;
  std::vector<KeywordId> terms;
};

RandomCase random_case(Rng& rng, const BloomParams& params) {
  RandomCase c{BloomFilter(params), {}};
  std::vector<KeywordId> inserted;
  const int population = 1 + static_cast<int>(rng.below(60));
  for (int i = 0; i < population; ++i) {
    inserted.push_back(static_cast<KeywordId>(rng.below(100'000)));
    c.filter.insert(inserted.back());
  }
  const int nterms = 1 + static_cast<int>(rng.below(5));
  for (int i = 0; i < nterms; ++i) {
    c.terms.push_back(rng.chance(0.5)
                          ? inserted[rng.below(inserted.size())]
                          : static_cast<KeywordId>(rng.below(100'000)));
  }
  return c;
}

TEST(HashedQuery, MatchesPerTermScanOnRandomFilters) {
  // matches() must give the per-key present_in conjunction and the legacy
  // contains_all answer on every sampled (filter, query) pair.
  Rng rng(20'240'808);
  const BloomParams params;  // paper geometry: 11542 bits, k=8
  int positives = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const RandomCase c = random_case(rng, params);
    const HashedQuery q(c.terms, params);
    bool per_key = true;
    for (const HashedKey& k : q.keys()) {
      per_key = per_key && k.present_in(c.filter.words());
    }
    const bool m = q.matches(c.filter);
    EXPECT_EQ(m, per_key);
    EXPECT_EQ(m, c.filter.contains_all(c.terms));
    positives += m ? 1 : 0;
  }
  EXPECT_GT(positives, 0) << "sweep never exercised the all-set path";
}

TEST(HashedQuery, ClearingOneProbeBitFlipsAMatch) {
  // Near miss: a matching filter with any one of the query's probe bits
  // cleared no longer matches.
  Rng rng(20'240'809);
  const BloomParams params;
  int positives = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const RandomCase c = random_case(rng, params);
    const HashedQuery q(c.terms, params);
    if (!q.matches(c.filter)) continue;
    ++positives;
    BloomFilter damaged = c.filter;
    const auto pos = q.keys()[rng.below(q.keys().size())].positions();
    damaged.toggle(pos[rng.below(pos.size())]);
    EXPECT_FALSE(q.matches(damaged));
    EXPECT_FALSE(damaged.contains_all(c.terms));
  }
  EXPECT_GT(positives, 0) << "sweep never produced a match to damage";
}

TEST(HashedQuery, EmptyQueryMatchesVacuously) {
  const HashedQuery q({}, BloomParams{});
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.fold_mask_all(), 0u);
  BloomFilter f;
  EXPECT_TRUE(q.matches(f));
}

// The empty probe set: a default HashedKey has no positions and a default
// HashedQuery no keys, so both hold against an all-clear bitmap, and the
// geometry-mismatch fallback agrees with contains_all on no terms.
TEST(BatchProbe, EmptyPlanIsVacuouslyTrue) {
  const std::vector<std::uint64_t> words(4, 0);
  EXPECT_TRUE(HashedKey().present_in(words));
  const HashedQuery q;
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.keys().empty());
  EXPECT_TRUE(q.matches(BloomFilter(q.params())));
  const BloomFilter other(BloomParams::for_capacity(100, 4));
  ASSERT_NE(other.params(), q.params());
  EXPECT_TRUE(q.matches(other));
  EXPECT_TRUE(other.contains_all(q.terms()));
}

TEST(HashedQuery, FoldMaskAllIsTheUnionOfTermMasks) {
  const BloomParams params;
  const std::vector<KeywordId> terms{11, 22, 33};
  const HashedQuery q(terms, params);
  std::uint64_t expected = 0;
  for (const auto& key : q.keys()) expected |= key.fold_mask();
  EXPECT_EQ(q.fold_mask_all(), expected);
}

TEST(HashedQuery, GeometryMismatchFallsBackToLegacyScan) {
  // A query hashed for the default geometry must still answer correctly
  // against a filter with different params (positions are meaningless
  // there; matches() re-hashes via contains_all).
  const BloomParams other = BloomParams::for_capacity(100, 4);
  ASSERT_NE(other, BloomParams{});
  BloomFilter f(other);
  f.insert(7);
  f.insert(8);
  const HashedQuery q(std::vector<KeywordId>{7, 8}, BloomParams{});
  EXPECT_TRUE(q.matches(f));
  const HashedQuery miss(std::vector<KeywordId>{7, 999'999}, BloomParams{});
  EXPECT_EQ(miss.matches(f), f.contains_all(miss.terms()));
}

TEST(HashedQuery, AssignReusesTheInstance) {
  const BloomParams params;
  BloomFilter f(params);
  f.insert(1);
  f.insert(2);
  HashedQuery q;
  q.assign(std::vector<KeywordId>{1, 2}, params);
  EXPECT_TRUE(q.matches(f));
  EXPECT_EQ(q.size(), 2u);
  q.assign(std::vector<KeywordId>{3}, params);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.matches(f), f.contains_all(q.terms()));
  q.assign({}, params);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.matches(f));
  // Re-assigning the first term set restores identical behavior.
  q.assign(std::vector<KeywordId>{1, 2}, params);
  EXPECT_TRUE(q.matches(f));
  EXPECT_EQ(HashedQuery(q.terms(), params).fold_mask_all(),
            q.fold_mask_all());
}

}  // namespace
}  // namespace asap::bloom
