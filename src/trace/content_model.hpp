// Synthetic content-distribution model matching the eDonkey statistics the
// paper's trace preparation relies on (§IV-B, §V-A):
//   * a universal document set shared by the selected peers,
//   * mean replication ~ 1.28 copies per document, ~89% single-copy,
//   * 14 semantic classes with skewed sizes (Fig 2),
//   * interest clustering: a sharer's interests are exactly the classes of
//     its shared documents; free-riders share nothing and receive random
//     interests (Fig 3),
//   * per-document keyword sets (file-name terms): a few popular class
//     terms plus unique title terms, so multi-term queries can miss even
//     when individual terms hit (exercising ASAP's confirmation step).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "common/zipf.hpp"
#include "trace/classes.hpp"

namespace asap::trace {

struct Document {
  TopicId topic = 0;
  /// File-name terms; queries draw subsets of these.
  std::vector<KeywordId> keywords;
};

struct ContentModelParams {
  std::uint32_t initial_nodes = 2'000;
  std::uint32_t joiner_nodes = 200;  // extra slots that join mid-trace
  double free_rider_fraction = 0.25;
  /// Mean shared documents per sharing node (eDonkey: ~25).
  double mean_docs_per_sharer = 25.0;
  std::uint32_t max_docs_per_node = 150;  // keeps |K_p| under ~1000
  /// Replication profile: P(copies=1) and the tail skew of extra copies.
  double single_copy_fraction = 0.89;
  double copy_tail_alpha = 2.0;
  std::uint32_t copy_tail_max = 50;
  /// Keyword model.
  std::uint32_t popular_terms_per_class = 800;
  double popular_term_alpha = 1.0;

  static ContentModelParams small();
  static ContentModelParams paper();  // 10,000 peers, 1,000 joiners
};

/// The generated corpus + placement + interests. Node slots
/// [0, initial_nodes) are the initially-online peers; slots
/// [initial_nodes, initial_nodes + joiner_nodes) are reserved for joiners.
class ContentModel {
 public:
  static ContentModel build(const ContentModelParams& params, Rng& rng);

  const ContentModelParams& params() const { return params_; }

  std::uint32_t total_node_slots() const {
    return params_.initial_nodes + params_.joiner_nodes;
  }

  const std::vector<Document>& corpus() const { return corpus_; }
  const Document& doc(DocId d) const { return corpus_[d]; }
  std::size_t num_docs() const { return corpus_.size(); }

  /// Documents initially shared by node n (empty for free-riders and for
  /// joiner slots, whose content arrives with their join event).
  const std::vector<DocId>& initial_docs(NodeId n) const {
    return initial_docs_[n];
  }
  /// Documents a joiner slot brings when it joins.
  const std::vector<DocId>& joiner_docs(NodeId n) const;

  /// Interest classes of node n (includes joiners).
  const std::vector<TopicId>& interests(NodeId n) const {
    return interests_[n];
  }

  bool is_free_rider(NodeId n) const {
    return n < params_.initial_nodes && initial_docs_[n].empty();
  }

  /// Creates a brand-new single-copy document in the given class and
  /// returns its id (used for mid-trace document additions).
  DocId mint_document(TopicId cls, Rng& rng);

  /// Consumes exactly the RNG draws mint_document would, without touching
  /// the corpus. The streaming trace path replays a build-mode stream
  /// against a const model whose corpus already holds every mid-trace
  /// mint (appended in stream order), so replayed mints resolve to
  /// sequential pre-minted ids while the draw stream stays bit-identical.
  void replay_mint_draws(TopicId cls, Rng& rng) const;

  // --- statistics used by Fig 2/3 and by tests -------------------------
  /// #nodes whose initial contents include each class (Fig 2).
  std::array<std::uint32_t, kNumClasses> nodes_per_class() const;
  /// #nodes whose interest set includes each class (Fig 3).
  std::array<std::uint32_t, kNumClasses> nodes_per_interest() const;
  /// Mean replicas per distinct document in the initial placement.
  double mean_replication() const;
  /// Fraction of distinct documents with exactly one initial copy.
  double single_copy_fraction() const;

 private:
  std::vector<KeywordId> make_keywords(TopicId cls, Rng& rng);

  ContentModelParams params_;
  std::vector<Document> corpus_;
  std::vector<std::vector<DocId>> initial_docs_;
  std::vector<std::vector<DocId>> joiner_docs_;  // indexed by slot - initial
  std::vector<std::vector<TopicId>> interests_;
  // Keyword machinery (shared with mint_document).
  std::vector<std::vector<KeywordId>> class_pools_;
  // Lazily created on the first mint (or mint replay — hence mutable):
  // creation consumes no RNG draws, so build and replay paths may each
  // create it on demand without perturbing the stream. ZipfDraw keeps the
  // historical CDF sampler at small pool sizes and switches to O(1)
  // rejection-inversion for scale worlds' larger keyword pools.
  mutable std::unique_ptr<ZipfDraw> popular_sampler_;
  KeywordId next_keyword_ = 0;

  void ensure_popular_sampler(TopicId cls) const;
};

}  // namespace asap::trace
