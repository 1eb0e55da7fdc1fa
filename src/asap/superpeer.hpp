// Hierarchical (superpeer) ASAP — the deployment mode of the paper's
// footnote 3: "ASAP can work well on hierarchical systems in which only
// super peers are responsible for ad representation, delivery, caching and
// processing."
//
// A fraction of well-connected peers act as superpeers; every leaf is
// assigned to a *proxy* superpeer. Leaves upload their ads (full, patch,
// refresh) to their proxy over one hop; the proxy disseminates them across
// the superpeer mesh, where all caching happens. A leaf's search is a
// query to its proxy, which answers from its ads cache (falling back to an
// ads request among its superpeer neighbors); the leaf then confirms with
// the content source directly.
//
// Compared with flat ASAP: far fewer caches (memory concentrates on
// capable nodes), smaller dissemination graph (cheaper deliveries), at the
// price of one extra proxy round trip per search and reliance on
// superpeer availability.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "asap/ad.hpp"
#include "asap/ad_cache.hpp"
#include "asap/ad_plane.hpp"
#include "asap/advertiser.hpp"
#include "overlay/overlay.hpp"
#include "search/algorithm.hpp"
#include "search/baseline.hpp"
#include "search/context.hpp"

namespace asap::ads {

struct SuperpeerParams {
  /// Ad forwarding scheme across the superpeer mesh.
  search::Scheme scheme = search::Scheme::kRandomWalk;
  /// Fraction of (initial) peers promoted to superpeers, picked by degree.
  double superpeer_fraction = 0.15;
  std::uint32_t flood_ttl = 6;
  std::uint32_t walkers = 5;
  /// Budget unit per topic, applied to the superpeer mesh (which is ~6x
  /// smaller than the full overlay, so the default is scaled accordingly).
  std::uint64_t budget_unit_m0 = 450;
  double join_budget_scale = 0.05;
  double patch_budget_scale = 0.25;
  double refresh_budget_scale = 0.08;
  Seconds refresh_period = 120.0;
  std::uint32_t ads_request_hops = 1;
  std::uint32_t cache_capacity = 4'000;  // superpeers are capable nodes
  std::uint64_t max_walk_hops = 600;

  static SuperpeerParams small(search::Scheme s);
};

class SuperpeerAsap final : public search::SearchAlgorithm {
 public:
  SuperpeerAsap(search::Ctx& ctx, SuperpeerParams params);

  std::string name() const override;
  void warm_up(Seconds duration) override;
  void on_trace_event(const trace::TraceEvent& event) override;

  bool is_superpeer(NodeId n) const { return is_superpeer_[n]; }
  NodeId proxy_of(NodeId n) const { return proxy_[n]; }
  std::uint32_t num_superpeers() const { return num_superpeers_; }
  const AdCache& cache(NodeId sp) const { return caches_[sp]; }
  /// Total cache entries across all superpeers (memory footprint probe).
  std::uint64_t total_cached_ads() const;

  struct Counters {
    std::uint64_t full_ads = 0;
    std::uint64_t patch_ads = 0;
    std::uint64_t refresh_ads = 0;
    std::uint64_t proxy_uploads = 0;   // leaf -> proxy ad transfers
    std::uint64_t proxy_queries = 0;   // leaf -> proxy search requests
    std::uint64_t ads_requests = 0;
    std::uint64_t confirm_requests = 0;
    // Adversary telemetry (all zero unless Byzantine roles are armed).
    std::uint64_t polluted_ads = 0;
    std::uint64_t forced_negatives = 0;
    std::uint64_t dropped_confirms = 0;
  };
  const Counters& counters() const { return counters_; }

 private:
  void build_hierarchy();
  /// Picks (or re-picks) a proxy for node n; returns kInvalidNode if no
  /// superpeer is reachable/online.
  NodeId assign_proxy(NodeId n);

  /// Leaf (or superpeer) publishes an ad: pays the one-hop upload if the
  /// source is a leaf, then disseminates across the superpeer mesh.
  void publish(NodeId source, const AdMessage& ad, Seconds when,
               double scale);
  /// Publishes a fresh full ad of n's content (polluted if n is a
  /// polluter) and arms its refresh timer.
  void advertise_full(NodeId n, Seconds when, double scale);

  void on_join(const trace::TraceEvent& ev);
  void on_content_change(const trace::TraceEvent& ev);
  void run_query(const trace::TraceEvent& ev);

  Seconds confirm_round(NodeId requester, Seconds start,
                        std::span<const KeywordId> terms,
                        std::span<const AdPayloadPtr> candidates,
                        metrics::SearchRecord& rec, Seconds& resolve);
  Seconds ads_request_phase(NodeId sp, Seconds start,
                            const bloom::HashedQuery& query,
                            metrics::SearchRecord* rec,
                            std::vector<AdPayloadPtr>& matches_out);

  void schedule_refresh(NodeId n);
  void on_refresh_timer(NodeId n);

  search::Ctx& ctx_;
  SuperpeerParams params_;
  SpreadParams spread_;
  overlay::Overlay sp_mesh_;  // same id space; only superpeers have edges
  std::vector<std::uint8_t> is_superpeer_;
  std::vector<NodeId> proxy_;
  std::uint32_t num_superpeers_ = 0;
  std::vector<Advertiser> advertisers_;
  std::vector<AdCache> caches_;  // only superpeer slots are ever filled
  std::vector<std::uint8_t> refresh_scheduled_;
  Counters counters_;
  std::vector<AdPayloadPtr> scratch_ads_;
  std::vector<AdPayloadPtr> reply_scratch_;
};

}  // namespace asap::ads
