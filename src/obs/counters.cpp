#include "obs/counters.hpp"

namespace asap::obs {

namespace {

double n(std::uint64_t v) { return static_cast<double>(v); }

json::Object category_to_json(const CategoryCounters& c) {
  json::Object out;
  out.emplace_back("deposits", json::Value(n(c.deposits)));
  out.emplace_back("bytes", json::Value(n(c.bytes)));
  out.emplace_back("drops_ttl", json::Value(n(c.drops_ttl)));
  out.emplace_back("drops_loss", json::Value(n(c.drops_loss)));
  out.emplace_back("drops_duplicate", json::Value(n(c.drops_duplicate)));
  out.emplace_back("drops_offline", json::Value(n(c.drops_offline)));
  out.emplace_back("drops_dead", json::Value(n(c.drops_dead)));
  return out;
}

}  // namespace

json::Object CounterRegistry::snapshot() const {
  json::Object categories;
  for (std::size_t i = 0; i < sim::kTrafficCount; ++i) {
    if (!categories_[i].any()) continue;
    categories.emplace_back(sim::traffic_name(static_cast<sim::Traffic>(i)),
                            json::Value(category_to_json(categories_[i])));
  }

  // Fixed-key objects are built from initializer lists: emplace_back into
  // an empty Object trips a GCC 12 -Warray-bounds false positive here.
  json::Object ads{
      {"stored", n(totals_.ads_stored)},
      {"evicted", n(totals_.ads_evicted)},
      {"invalidated", n(totals_.ads_invalidated)},
  };
  json::Object confirms{
      {"sent", n(totals_.confirms_sent)},
      {"positive", n(totals_.confirms_positive)},
      {"timed_out", n(totals_.confirms_timed_out)},
      {"retries", n(totals_.confirm_retries)},
  };
  json::Object faults{
      {"injected", n(faults_injected_)},
      {"stale_evictions", n(totals_.stale_evictions)},
      {"trust_strikes", n(totals_.trust_strikes)},
      {"quarantines", n(totals_.quarantines)},
      {"queries_shed", n(totals_.queries_shed)},
  };

  json::Object out;
  out.emplace_back("categories", json::Value(std::move(categories)));
  out.emplace_back("ads", json::Value(std::move(ads)));
  out.emplace_back("confirms", json::Value(std::move(confirms)));
  out.emplace_back("faults", json::Value(std::move(faults)));
  return out;
}

json::Array CounterRegistry::node_rows() const {
  json::Array out;
  for (std::size_t i = 0; i < per_node_.size(); ++i) {
    const NodeCounters& c = per_node_[i];
    if (!c.any()) continue;
    json::Object row;
    row.emplace_back("type", json::Value(std::string("node-counters")));
    row.emplace_back("node", json::Value(static_cast<double>(i)));
    row.emplace_back("ads_stored", json::Value(n(c.ads_stored)));
    row.emplace_back("ads_evicted", json::Value(n(c.ads_evicted)));
    row.emplace_back("ads_invalidated", json::Value(n(c.ads_invalidated)));
    row.emplace_back("confirms_sent", json::Value(n(c.confirms_sent)));
    row.emplace_back("confirms_positive", json::Value(n(c.confirms_positive)));
    row.emplace_back("confirms_timed_out",
                     json::Value(n(c.confirms_timed_out)));
    row.emplace_back("confirm_retries", json::Value(n(c.confirm_retries)));
    row.emplace_back("stale_evictions", json::Value(n(c.stale_evictions)));
    row.emplace_back("trust_strikes", json::Value(n(c.trust_strikes)));
    row.emplace_back("quarantines", json::Value(n(c.quarantines)));
    row.emplace_back("queries_shed", json::Value(n(c.queries_shed)));
    out.push_back(json::Value(std::move(row)));
  }
  return out;
}

}  // namespace asap::obs
