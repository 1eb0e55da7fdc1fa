// Scale sweep (DESIGN.md §15): world-build and replay cost from 10k to 1M
// peers on one machine. Exercises the pooled CSR overlay, the SoA/FlatMap
// node state and on-demand trace synthesis end to end, and emits the
// machine-readable BENCH_scale.json that tools/check_bench_scale.py gates
// in CI (--enforce pins the 1M bytes-per-node budget).
//
// Random-walk runs at every scale (bounded per-query cost); ASAP(RW) runs
// at the scales where its M0 advertisement budget is feasible on one core
// (the paper's protocol floods ads to every peer at startup — at 1M nodes
// that is the dominant cost by orders of magnitude, and not what this
// sweep measures).
//
//   bench_scale [--scales 10000,100000,1000000] [--queries 2000]
//               [--seed 7] [--json PATH] [--algos random-walk,asap(rw)]
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/resource.hpp"
#include "common/table.hpp"
#include "harness/config.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"

namespace {

using namespace asap;
using namespace asap::harness;

struct Args {
  std::vector<std::uint32_t> scales{10'000, 100'000, 1'000'000};
  std::uint32_t queries = 2'000;
  std::uint64_t seed = 7;
  std::string json_path;
  /// Empty = default policy: random-walk everywhere, ASAP(RW) up to 100k
  /// (its startup ad flood costs minutes and ~gigabytes past that — CI
  /// passes --algos random-walk to stay inside its address-space cap).
  std::vector<AlgoKind> algos;
};

std::vector<std::uint32_t> parse_scales(const std::string& csv) {
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const auto comma = csv.find(',', pos);
    const auto tok = csv.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
    out.push_back(static_cast<std::uint32_t>(std::stoul(tok)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  ASAP_REQUIRE(!out.empty(), "--scales needs at least one value");
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      ASAP_REQUIRE(i + 1 < argc, flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--scales") {
      a.scales = parse_scales(next());
    } else if (flag == "--queries") {
      a.queries = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (flag == "--seed") {
      a.seed = std::stoull(next());
    } else if (flag == "--json") {
      a.json_path = next();
    } else if (flag == "--algos") {
      const auto csv = next();
      std::size_t pos = 0;
      while (pos < csv.size()) {
        const auto comma = csv.find(',', pos);
        const auto tok = csv.substr(pos, comma == std::string::npos
                                             ? std::string::npos
                                             : comma - pos);
        const auto kind = algo_from_name(tok);
        ASAP_REQUIRE(kind.has_value(), "unknown algorithm: " + tok);
        a.algos.push_back(*kind);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      std::exit(2);
    }
  }
  return a;
}

struct Row {
  std::uint32_t scale = 0;
  std::uint32_t nodes = 0;
  std::string algo;
  std::uint32_t queries = 0;
  double world_build_seconds = 0.0;
  double run_wall_seconds = 0.0;
  std::uint64_t engine_events = 0;
  double events_per_sec = 0.0;
  double ns_per_event = 0.0;
  std::uint64_t overlay_bytes = 0;
  std::uint64_t state_bytes = 0;
  double bytes_per_node = 0.0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t digest = 0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  std::vector<Row> rows;

  // Ascending scales so peak RSS at each row reflects the largest world
  // seen so far — the 1M row's value is the number that matters.
  for (const auto scale : args.scales) {
    auto cfg = ExperimentConfig::make(Preset::kSmall, TopologyKind::kCrawled,
                                      args.seed);
    cfg.apply_scale(scale);
    cfg.trace.num_queries = args.queries;

    const auto build_start = std::chrono::steady_clock::now();
    const World world = build_world(cfg);
    const double build_seconds = seconds_since(build_start);
    std::cerr << "[scale " << scale << "] world built in " << build_seconds
              << "s\n";

    std::vector<AlgoKind> algos = args.algos;
    if (algos.empty()) {
      algos.push_back(AlgoKind::kRandomWalk);
      // ASAP's startup advertisement flood is O(n * cache traffic); past
      // ~100k peers it dwarfs the replay this sweep measures.
      if (scale <= 100'000) algos.push_back(AlgoKind::kAsapRw);
    }

    for (const auto kind : algos) {
      const auto run_start = std::chrono::steady_clock::now();
      const RunResult r = run_experiment(world, kind);
      const double run_seconds = seconds_since(run_start);

      Row row;
      row.scale = scale;
      row.nodes = cfg.content.initial_nodes;
      row.algo = r.algo;
      row.queries = cfg.trace.num_queries;
      row.world_build_seconds = build_seconds;
      row.run_wall_seconds = run_seconds;
      row.engine_events = r.engine_events;
      row.events_per_sec = r.events_per_sec;
      row.ns_per_event = r.engine_events > 0
                             ? 1e9 * r.wall_seconds /
                                   static_cast<double>(r.engine_events)
                             : 0.0;
      row.overlay_bytes = world.base_overlay.memory_bytes();
      row.state_bytes = r.state_bytes;
      row.bytes_per_node =
          static_cast<double>(row.overlay_bytes + row.state_bytes) /
          static_cast<double>(row.nodes);
      row.peak_rss_bytes = r.peak_rss_bytes;
      row.digest = r.digest;
      rows.push_back(row);
      std::cerr << "[scale " << scale << "] " << row.algo << " done in "
                << run_seconds << "s\n";
    }
  }

  TextTable table({"scale", "algo", "build s", "run s", "events", "B/node",
                   "peak RSS MiB"});
  for (const auto& r : rows) {
    table.add_row({std::to_string(r.scale), r.algo,
                   TextTable::num(r.world_build_seconds, 2),
                   TextTable::num(r.run_wall_seconds, 2),
                   std::to_string(r.engine_events),
                   TextTable::num(r.bytes_per_node, 1),
                   TextTable::num(static_cast<double>(r.peak_rss_bytes) /
                                      (1024.0 * 1024.0),
                                  1)});
  }
  table.print(std::cout);

  if (!args.json_path.empty()) {
    json::Array arr;
    for (const auto& r : rows) {
      json::Object o;
      o.emplace_back("scale", static_cast<double>(r.scale));
      o.emplace_back("nodes", static_cast<double>(r.nodes));
      o.emplace_back("algo", r.algo);
      o.emplace_back("queries", static_cast<double>(r.queries));
      o.emplace_back("world_build_seconds", r.world_build_seconds);
      o.emplace_back("run_wall_seconds", r.run_wall_seconds);
      o.emplace_back("engine_events", static_cast<double>(r.engine_events));
      o.emplace_back("events_per_sec", r.events_per_sec);
      o.emplace_back("ns_per_event", r.ns_per_event);
      o.emplace_back("overlay_bytes", static_cast<double>(r.overlay_bytes));
      o.emplace_back("state_bytes", static_cast<double>(r.state_bytes));
      o.emplace_back("bytes_per_node", r.bytes_per_node);
      o.emplace_back("peak_rss_bytes", static_cast<double>(r.peak_rss_bytes));
      o.emplace_back("digest", json::hex_u64(r.digest));
      arr.emplace_back(std::move(o));
    }
    json::Object doc;
    doc.emplace_back("schema", "asap.bench_scale.v1");
    doc.emplace_back("seed", static_cast<double>(args.seed));
    doc.emplace_back("rows", std::move(arr));
    std::ofstream os(args.json_path);
    ASAP_REQUIRE(os.good(), "cannot open " + args.json_path);
    os << json::dump(json::Value(std::move(doc)));
  }
  return 0;
}
