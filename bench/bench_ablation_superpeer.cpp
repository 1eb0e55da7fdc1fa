// Ablation: flat ASAP vs. hierarchical (superpeer) ASAP — the paper's
// footnote-3 deployment mode, where only superpeers represent, deliver,
// cache and process ads.
//
// Expectations: the superpeer mode concentrates cache memory on ~15% of
// peers and disseminates over a much smaller mesh (lower ad load), at the
// cost of one extra proxy round trip per leaf search (higher response
// time) and sensitivity to superpeer liveness.
#include <iostream>
#include <memory>

#include "asap/superpeer.hpp"
#include "bench/support.hpp"

int main(int argc, char** argv) {
  using namespace asap;
  auto args = bench::BenchArgs::parse(argc, argv);
  if (args.queries_override == 0) args.queries_override = 2'000;
  const auto cfg = bench::make_config(args, harness::TopologyKind::kCrawled);
  std::cerr << "[bench] building crawled world...\n";
  const auto world = harness::build_world(cfg);

  std::cout << "=== Ablation: flat ASAP(RW) vs superpeer ASAP(RW), crawled "
               "===\n\n";
  TextTable table({"mode", "success %", "local hit %", "resp ms",
                   "cost/search", "load B/node/s", "cached ads total"});

  {
    const auto flat =
        harness::run_experiment(world, harness::AlgoKind::kAsapRw);
    std::cerr << "[bench] flat done\n";
    // Flat cache occupancy is not exposed via RunResult; report the load
    // and search metrics, cache column marked from the protocol run below.
    table.add_row({"flat asap(rw)",
                   TextTable::num(100.0 * flat.search.success_rate(), 1),
                   TextTable::num(100.0 * flat.search.local_hit_rate(), 1),
                   TextTable::num(1e3 * flat.search.avg_response_time(), 1),
                   TextTable::bytes(flat.search.avg_cost_bytes()),
                   TextTable::num(flat.load.mean_bytes_per_node_per_sec, 1),
                   "~every interested node"});
  }
  for (const double fraction : {0.10, 0.15, 0.25}) {
    auto p = ads::SuperpeerParams::small(search::Scheme::kRandomWalk);
    p.superpeer_fraction = fraction;
    std::uint64_t cached_ads = 0;
    std::uint32_t superpeers = 0;
    const harness::SystemSpec sp{
        "sp-asap(rw)",
        harness::load_categories(harness::AlgoKind::kAsapRw),
        [p](search::Ctx& ctx) {
          return std::make_unique<ads::SuperpeerAsap>(ctx, p);
        },
        [&](const search::SearchAlgorithm& algo, harness::RunResult&) {
          const auto& spa = static_cast<const ads::SuperpeerAsap&>(algo);
          cached_ads = spa.total_cached_ads();
          superpeers = spa.num_superpeers();
        }};
    const auto res = harness::run_experiment(world, sp);
    std::cerr << "[bench] superpeer fraction=" << fraction << " done\n";
    table.add_row(
        {"sp-asap(rw) " + TextTable::num(100.0 * fraction, 0) + "% (" +
             std::to_string(superpeers) + " SPs)",
         TextTable::num(100.0 * res.search.success_rate(), 1),
         TextTable::num(100.0 * res.search.local_hit_rate(), 1),
         TextTable::num(1e3 * res.search.avg_response_time(), 1),
         TextTable::bytes(res.search.avg_cost_bytes()),
         TextTable::num(res.load.mean_bytes_per_node_per_sec, 1),
         std::to_string(cached_ads)});
  }
  table.print(std::cout);
  return 0;
}
