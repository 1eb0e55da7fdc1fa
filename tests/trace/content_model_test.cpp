#include "trace/content_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trace/classes.hpp"

namespace asap::trace {
namespace {

ContentModelParams test_params() {
  ContentModelParams p;
  p.initial_nodes = 1'000;
  p.joiner_nodes = 100;
  return p;
}

class ContentModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(7);
    model_ = new ContentModel(ContentModel::build(test_params(), rng));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }
  static ContentModel* model_;
};

ContentModel* ContentModelTest::model_ = nullptr;

TEST_F(ContentModelTest, SlotLayout) {
  EXPECT_EQ(model_->total_node_slots(), 1'100u);
  EXPECT_FALSE(model_->corpus().empty());
}

TEST_F(ContentModelTest, ReplicationMatchesEdonkeyStatistics) {
  // §V-A: "the average number of copies per document is around 1.28 and
  // 89% files only have one copy".
  EXPECT_NEAR(model_->mean_replication(), 1.28, 0.12);
  EXPECT_NEAR(model_->single_copy_fraction(), 0.89, 0.04);
}

TEST_F(ContentModelTest, FreeRiderFractionRoughlyMatches) {
  std::uint32_t free_riders = 0;
  for (NodeId n = 0; n < test_params().initial_nodes; ++n) {
    free_riders += model_->is_free_rider(n);
  }
  const double frac =
      static_cast<double>(free_riders) / test_params().initial_nodes;
  EXPECT_NEAR(frac, test_params().free_rider_fraction, 0.06);
}

TEST_F(ContentModelTest, InterestsMatchContentClasses) {
  // Paper: a sharer's interests are exactly the classes of its contents.
  for (NodeId n = 0; n < test_params().initial_nodes; ++n) {
    if (model_->is_free_rider(n)) {
      EXPECT_FALSE(model_->interests(n).empty())
          << "free-riders get random interests";
      continue;
    }
    std::set<TopicId> classes;
    for (DocId d : model_->initial_docs(n)) {
      classes.insert(model_->doc(d).topic);
    }
    const auto& ints = model_->interests(n);
    EXPECT_EQ(std::set<TopicId>(ints.begin(), ints.end()), classes)
        << "node " << n;
  }
}

TEST_F(ContentModelTest, InterestsAreSortedAndValid) {
  for (NodeId n = 0; n < model_->total_node_slots(); ++n) {
    const auto& ints = model_->interests(n);
    EXPECT_FALSE(ints.empty());
    EXPECT_TRUE(std::is_sorted(ints.begin(), ints.end()));
    for (TopicId t : ints) EXPECT_LT(t, kNumClasses);
  }
}

TEST_F(ContentModelTest, DocumentsHaveKeywordsAndValidTopic) {
  for (const auto& doc : model_->corpus()) {
    EXPECT_LT(doc.topic, kNumClasses);
    EXPECT_GE(doc.keywords.size(), 3u);
    EXPECT_LE(doc.keywords.size(), 8u);
  }
}

TEST_F(ContentModelTest, KeywordSetsStayUnderFilterCapacity) {
  // |K_p| must stay below the paper's |K_max| = 1000 so the fixed-size
  // Bloom filter retains its false-positive guarantee.
  for (NodeId n = 0; n < test_params().initial_nodes; ++n) {
    std::set<KeywordId> kws;
    for (DocId d : model_->initial_docs(n)) {
      const auto& dk = model_->doc(d).keywords;
      kws.insert(dk.begin(), dk.end());
    }
    EXPECT_LE(kws.size(), 1'000u) << "node " << n;
  }
}

TEST_F(ContentModelTest, ClassDistributionIsSkewed) {
  const auto per_class = model_->nodes_per_class();
  // Fig 2 shape: the most popular class covers many more nodes than the
  // least popular one.
  const auto mx = *std::max_element(per_class.begin(), per_class.end());
  const auto mn = *std::min_element(per_class.begin(), per_class.end());
  EXPECT_GT(mx, 3 * (mn + 1));
}

TEST_F(ContentModelTest, InterestDistributionCoversAllClasses) {
  const auto per_interest = model_->nodes_per_interest();
  for (std::uint32_t c = 0; c < kNumClasses; ++c) {
    EXPECT_GT(per_interest[c], 0u) << class_name(static_cast<TopicId>(c));
  }
  // Fig 3: interest counts dominate content counts (free-riders add
  // interests without content).
  const auto per_class = model_->nodes_per_class();
  std::uint64_t ints = 0, classes = 0;
  for (std::uint32_t c = 0; c < kNumClasses; ++c) {
    ints += per_interest[c];
    classes += per_class[c];
  }
  EXPECT_GE(ints, classes);
}

TEST_F(ContentModelTest, JoinerSlotsHaveContentOrInterests) {
  const auto initial = test_params().initial_nodes;
  std::uint32_t sharers = 0;
  for (NodeId n = initial; n < model_->total_node_slots(); ++n) {
    sharers += !model_->joiner_docs(n).empty();
    EXPECT_FALSE(model_->interests(n).empty());
  }
  EXPECT_GT(sharers, 50u);  // ~75% of joiners share
  EXPECT_THROW(model_->joiner_docs(0), ConfigError);
}

TEST_F(ContentModelTest, MintDocumentAppendsToCorpus) {
  Rng rng(9);
  ContentModel m = ContentModel::build(test_params(), rng);
  const auto before = m.corpus().size();
  const DocId d = m.mint_document(3, rng);
  EXPECT_EQ(d, before);
  EXPECT_EQ(m.corpus().size(), before + 1);
  EXPECT_EQ(m.doc(d).topic, 3);
  EXPECT_THROW(m.mint_document(kNumClasses, rng), ConfigError);
}

TEST(ContentModelValidation, RejectsBadParams) {
  Rng rng(1);
  ContentModelParams p = test_params();
  p.initial_nodes = 5;
  EXPECT_THROW(ContentModel::build(p, rng), ConfigError);
  p = test_params();
  p.free_rider_fraction = 1.0;
  EXPECT_THROW(ContentModel::build(p, rng), ConfigError);
  p = test_params();
  p.mean_docs_per_sharer = 0.5;
  EXPECT_THROW(ContentModel::build(p, rng), ConfigError);
}

TEST(ContentModelDeterminism, SameSeedSameModel) {
  Rng a(33), b(33);
  const auto m1 = ContentModel::build(test_params(), a);
  const auto m2 = ContentModel::build(test_params(), b);
  ASSERT_EQ(m1.corpus().size(), m2.corpus().size());
  for (std::size_t i = 0; i < m1.corpus().size(); i += 97) {
    EXPECT_EQ(m1.corpus()[i].topic, m2.corpus()[i].topic);
    EXPECT_EQ(m1.corpus()[i].keywords, m2.corpus()[i].keywords);
  }
  for (NodeId n = 0; n < m1.total_node_slots(); n += 13) {
    EXPECT_EQ(m1.interests(n), m2.interests(n));
  }
}

TEST(Classes, NamesAndWeights) {
  const auto& w = class_weights();
  double total = 0.0;
  for (std::uint32_t c = 0; c < kNumClasses; ++c) {
    EXPECT_FALSE(class_name(static_cast<TopicId>(c)).empty());
    EXPECT_GT(w[c], 0.0);
    total += w[c];
    if (c > 0) {
      EXPECT_LE(w[c], w[c - 1]);  // sorted by popularity
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_THROW(class_name(kNumClasses), ConfigError);
}

}  // namespace
}  // namespace asap::trace
