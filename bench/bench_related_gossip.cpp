// Related-work comparison: PlanetP-style global index gossip vs ASAP.
//
// The paper's Related Work argues that globally gossiped indices (PlanetP
// [8]) deliver good search performance but "the system load tends to be
// high due to the global gossiping", which "could limit the system
// scalability" — exactly the niche ASAP targets with selective,
// interest-gated caching. This bench puts numbers on that claim using the
// identical workload.
#include <iostream>
#include <memory>

#include "bench/support.hpp"
#include "search/gossip.hpp"

int main(int argc, char** argv) {
  using namespace asap;
  auto args = bench::BenchArgs::parse(argc, argv);
  if (args.queries_override == 0) args.queries_override = 2'000;
  const auto cfg = bench::make_config(args, harness::TopologyKind::kCrawled);
  std::cerr << "[bench] building crawled world...\n";
  const auto world = harness::build_world(cfg);

  std::cout << "=== Related work: global gossip (PlanetP-like) vs ASAP, "
               "crawled ===\n\n";
  TextTable table({"system", "success %", "resp ms", "cost/search",
                   "load B/node/s", "load stddev"});

  {
    // Everyone pays for every update: the load is the replicated filters
    // plus the confirmations.
    const harness::SystemSpec gossip{
        "gossip(planetp)",
        {sim::Traffic::kFullAd, sim::Traffic::kConfirm},
        [](search::Ctx& ctx) {
          return std::make_unique<search::GossipIndexSearch>(
              ctx, search::GossipParams{});
        },
        {}};
    const auto res = harness::run_experiment(world, gossip);
    std::cerr << "[bench] gossip done\n";
    table.add_row({"gossip(planetp)",
                   TextTable::num(100.0 * res.search.success_rate(), 1),
                   TextTable::num(1e3 * res.search.avg_response_time(), 1),
                   TextTable::bytes(res.search.avg_cost_bytes()),
                   TextTable::num(res.load.mean_bytes_per_node_per_sec, 1),
                   TextTable::num(res.load.stddev_bytes_per_node_per_sec,
                                  1)});
  }
  for (const auto kind :
       {harness::AlgoKind::kAsapRw, harness::AlgoKind::kFlooding}) {
    const auto res = harness::run_experiment(world, kind);
    std::cerr << "[bench] " << res.algo << " done\n";
    table.add_row({res.algo,
                   TextTable::num(100.0 * res.search.success_rate(), 1),
                   TextTable::num(1e3 * res.search.avg_response_time(), 1),
                   TextTable::bytes(res.search.avg_cost_bytes()),
                   TextTable::num(res.load.mean_bytes_per_node_per_sec, 1),
                   TextTable::num(res.load.stddev_bytes_per_node_per_sec,
                                  1)});
  }
  table.print(std::cout);
  std::cout << "\n(expected shape: gossip matches ASAP's search quality but "
               "pays a much higher, continuous background load — the "
               "paper's scalability argument against global replication)\n";
  return 0;
}
