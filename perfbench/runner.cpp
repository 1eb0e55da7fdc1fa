// Benchmark runner: runs one workload of the simulator through the public
// harness entry points (harness::build_world, harness::run_experiment) and
// prints one JSON object on stdout. run.py starts one fresh process per
// run, so peak RSS describes that run alone.
//
//   perfbench_runner run   --workload W --seed S [--check] [--setup-seconds T]
//   perfbench_runner trace --workload W --seed S --seconds T
//
// `run` builds the world (each build timed: setup_s; with --setup-seconds,
// repeatedly until T seconds have passed) and replays the last one once
// with tracing off. With --check it attaches a RunObserver and the invariant
// auditor and also reports the observer's counts; timed runs must reproduce
// the checked run's digest and paper metrics.
//
// `trace` alternates untraced and traced runs of one world for T seconds
// (at least one pair; no pair starts that would end later), then runs the
// layer probes (probes.hpp) and prints
// the per-layer metrics, the probes' self-checks and every span.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/resource.hpp"
#include "faults/fault_config.hpp"
#include "harness/config.hpp"
#include "harness/replay.hpp"
#include "harness/world.hpp"
#include "obs/observer.hpp"
#include "probes.hpp"

namespace {

namespace harness = asap::harness;
namespace json = asap::json;
namespace sim = asap::sim;
using Clock = std::chrono::steady_clock;

/// The benchmark's workloads; README.md says why each one is here.
struct Workload {
  const char* name;
  harness::AlgoKind algo;
  std::uint32_t queries;  // 0 = preset default (6,000 on the small preset)
  std::uint32_t scale;    // 0 = preset population (2,000 peers)
  bool churn;             // arm the "churn" fault preset
};

constexpr Workload kWorkloads[] = {
    {"asap-query-churn", harness::AlgoKind::kAsapRw, 30'000, 0, true},
    {"flood", harness::AlgoKind::kFlooding, 0, 0, false},
    {"scale-100k", harness::AlgoKind::kRandomWalk, 0, 100'000, false},
};

const Workload& workload_named(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw asap::ConfigError("unknown workload '" + std::string(name) + "'");
}

harness::ExperimentConfig config_for(const Workload& w, std::uint64_t seed) {
  auto cfg = harness::ExperimentConfig::make(harness::Preset::kSmall,
                                             harness::TopologyKind::kCrawled,
                                             seed);
  if (w.queries != 0) cfg.trace.num_queries = w.queries;
  if (w.scale != 0) cfg.apply_scale(w.scale);
  return cfg;
}

harness::RunOptions options_for(const Workload& w) {
  harness::RunOptions opts;
  if (w.churn) opts.faults = asap::faults::fault_preset("churn").config;
  return opts;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double phase_seconds(const harness::RunResult& r, std::string_view phase) {
  for (const auto& p : r.profile) {
    if (p.phase == phase) return p.wall_seconds;
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The simulated paper metrics every run is checked on.
json::Object paper_metrics(const harness::RunResult& r) {
  return {{"success_rate", r.search.success_rate()},
          {"local_hit_rate", r.search.local_hit_rate()},
          {"avg_cost_bytes", r.search.avg_cost_bytes()},
          {"load_mean_Bps", r.load.mean_bytes_per_node_per_sec}};
}

json::Object deposits_of(const asap::obs::RunObserver& obs) {
  json::Object out;
  for (std::size_t c = 0; c < sim::kTrafficCount; ++c) {
    const auto cat = static_cast<sim::Traffic>(c);
    const auto n = obs.counters().category(cat).deposits;
    out.emplace_back(sim::traffic_name(cat), static_cast<double>(n));
  }
  return out;
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 42;
  bool check = false;
  double setup_seconds = 0.0;
  double seconds = 10.0;
};

Args parse(int argc, char** argv) {
  if (argc < 2) {
    throw asap::ConfigError("usage: perfbench_runner run|trace ...");
  }
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw asap::ConfigError("missing value for " + std::string(flag));
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--check") {
      a.check = true;
    } else if (flag == "--setup-seconds") {
      a.setup_seconds = std::stod(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else {
      throw asap::ConfigError("unknown flag " + std::string(flag));
    }
  }
  if (a.mode != "run" && a.mode != "trace") {
    throw asap::ConfigError("mode must be run or trace");
  }
  return a;
}

json::Object run_mode(const Args& a, const Workload& w) {
  const auto cfg = config_for(w, a.seed);
  json::Array setup;
  std::optional<harness::World> world;
  const auto t_start = Clock::now();
  do {
    world.reset();
    const auto t0 = Clock::now();
    world.emplace(harness::build_world(cfg));
    setup.emplace_back(since(t0));
  } while (since(t_start) < a.setup_seconds);

  auto opts = options_for(w);
  std::optional<asap::obs::RunObserver> obs;
  if (a.check) {
    obs.emplace(asap::obs::ObsConfig{});
    opts.observer = &*obs;
    opts.audit = true;
  }
  const auto t0 = Clock::now();
  const auto res = harness::run_experiment(*world, w.algo, opts);
  const double run_s = since(t0);

  json::Array audit_messages;
  for (const auto& m : res.audit_messages) audit_messages.emplace_back(m);
  json::Object out = {
      {"setup_s", std::move(setup)},
      {"run_s", run_s},
      {"warmup_s", phase_seconds(res, "warm-up")},
      {"replay_s", phase_seconds(res, "query-replay")},
      {"engine_events", static_cast<double>(res.engine_events)},
      {"digest", json::hex_u64(res.digest)},
      {"paper", paper_metrics(res)},
      {"nodes", static_cast<double>(world->model.total_node_slots())},
      {"state_bytes", static_cast<double>(res.state_bytes)},
      {"peak_rss_bytes", static_cast<double>(asap::peak_rss_bytes())},
      {"audit_violations", static_cast<double>(res.audit_violations)},
      {"audit_messages", std::move(audit_messages)},
  };
  if (obs) {
    out.emplace_back("deposits", deposits_of(*obs));
  }
  return out;
}

json::Object trace_mode(const Args& a, const Workload& w) {
  const auto cfg = config_for(w, a.seed);
  const auto world = harness::build_world(cfg);
  perfbench::SpanLog log;
  perfbench::ProbeReport report;

  // Untraced / traced pairs: the traced run sees every engine event and
  // ledger deposit; the gap between the two is the tracing overhead.
  std::vector<double> plain_s, plain_warmup_s, plain_replay_s, traced_s;
  std::optional<harness::RunResult> plain;
  std::optional<asap::obs::RunObserver> obs;
  bool same_digest = true;
  const int top = log.begin("runs");
  const auto t_start = Clock::now();
  double pair_s = 0.0;  // no pair starts that would end past `a.seconds`
  do {
    const auto t_pair = Clock::now();
    int s = log.begin("harness.run_experiment", top);
    auto r = harness::run_experiment(world, w.algo, options_for(w));
    log.end(s, r.engine_events);
    plain_s.push_back(log.seconds(s));
    plain_warmup_s.push_back(phase_seconds(r, "warm-up"));
    plain_replay_s.push_back(phase_seconds(r, "query-replay"));
    same_digest = same_digest && (!plain || plain->digest == r.digest);
    plain = std::move(r);

    obs.emplace(asap::obs::ObsConfig{});
    auto opts = options_for(w);
    opts.observer = &*obs;
    s = log.begin("harness.run_experiment.traced", top);
    const auto t = harness::run_experiment(world, w.algo, opts);
    log.end(s, t.engine_events);
    traced_s.push_back(log.seconds(s));
    same_digest = same_digest && t.digest == plain->digest;
    pair_s = since(t_pair);
  } while (since(t_start) + pair_s <= a.seconds);
  log.end(top, plain_s.size() + traced_s.size());
  report.check("traced and untraced runs have one digest", same_digest);

  const auto& counters = obs->counters();
  const auto deposits = [&](sim::Traffic c) {
    return counters.category(c).deposits;
  };
  perfbench::run_probes(world, harness::is_asap(w.algo), plain->engine_events,
                        log, report);

  const double run_s = median(plain_s);
  const double warmup_s = median(plain_warmup_s);
  report.put("warmup_s", warmup_s);
  report.put("replay_s", median(plain_replay_s));
  report.put("state_bytes_per_node",
             static_cast<double>(plain->state_bytes) /
                 world.model.total_node_slots());
  report.put("obs.trace_overhead_s", median(traced_s) - run_s);
  std::uint64_t hops = 0;
  for (std::size_t c = 0; c < sim::kTrafficCount; ++c) {
    hops += deposits(static_cast<sim::Traffic>(c));
  }
  report.put("hops_per_s", static_cast<double>(hops) / run_s);
  for (std::size_t c = 0; c < sim::kTrafficCount; ++c) {
    const auto cat = static_cast<sim::Traffic>(c);
    report.put(std::string("sim.deposits.") + sim::traffic_name(cat),
               static_cast<double>(deposits(cat)));
  }
  const auto& tot = counters.totals();
  report.put("asap.ads_stored", static_cast<double>(tot.ads_stored));
  report.put("asap.confirms_sent", static_cast<double>(tot.confirms_sent));
  report.put("asap.confirm_positive_ratio",
             tot.confirms_sent == 0
                 ? 0.0
                 : static_cast<double>(tot.confirms_positive) /
                       static_cast<double>(tot.confirms_sent));
  report.put("asap.confirm_retries", static_cast<double>(tot.confirm_retries));
  report.put("asap.stale_evictions", static_cast<double>(tot.stale_evictions));

  // Coverage: probe ns/op times the traced counts, as a share of the
  // measured phase. Every ad hop runs the RW kernel and topics_overlap; the
  // interested share then calls put (full ads, all of the warm-up) or a
  // version update (patch and refresh ads, timed as on_refresh). Query hops
  // run the workload's kernel; engine events and ASAP cache scans pay their
  // probe's cost.
  const auto metric = [&](std::string_view name) {
    for (const auto& [k, v] : report.metrics) {
      if (k == name) return v;
    }
    throw asap::ConfigError("probe metric missing: " + std::string(name));
  };
  const double hop_ns =
      metric("search.rw_hop_ns") + metric("asap.topics_overlap_ns");
  const double full_hops =
      static_cast<double>(deposits(sim::Traffic::kFullAd));
  const double update_hops = static_cast<double>(
      deposits(sim::Traffic::kPatchAd) + deposits(sim::Traffic::kRefreshAd) +
      deposits(sim::Traffic::kPackedAd));
  const double warm_model_s =
      1e-9 * full_hops *
      (hop_ns + metric("asap.put_per_hop") * metric("asap.put_ns"));
  const double update_model_s =
      1e-9 * update_hops *
      (hop_ns + metric("asap.put_per_hop") * metric("asap.on_refresh_ns"));
  const double query_hop_ns = w.algo == harness::AlgoKind::kFlooding
                                  ? metric("search.flood_msg_ns")
                                  : metric("search.rw_hop_ns");
  const double queries =
      harness::is_asap(w.algo) ? static_cast<double>(plain->search.total())
                               : 0.0;
  const double run_model_s =
      warm_model_s + update_model_s +
      1e-9 * (static_cast<double>(deposits(sim::Traffic::kQuery)) *
                  query_hop_ns +
              static_cast<double>(plain->engine_events) *
                  metric("sim.engine_event_ns") +
              queries * metric("asap.collect_matches_ns"));
  report.put("cover.warmup_share",
             full_hops > 0 && warmup_s > 0 ? warm_model_s / warmup_s : 0.0);
  report.put("cover.run_share", run_s > 0 ? run_model_s / run_s : 0.0);

  json::Object metrics;
  for (const auto& [k, v] : report.metrics) metrics.emplace_back(k, v);
  json::Array checks;
  for (const auto& c : report.checks) {
    checks.emplace_back(json::Object{{"name", c.name}, {"ok", c.ok}});
  }
  json::Array spans;
  for (const auto& s : log.spans()) {
    spans.emplace_back(json::Object{
        {"name", s.name},
        {"parent", s.parent},
        {"start_ns", static_cast<double>(s.start_ns)},
        {"end_ns", static_cast<double>(s.end_ns)},
        {"ops", static_cast<double>(s.ops)}});
  }
  return {{"digest", json::hex_u64(plain->digest)},
          {"paper", paper_metrics(*plain)},
          {"run_s", run_s},
          {"metrics", std::move(metrics)},
          {"checks", std::move(checks)},
          {"spans", std::move(spans)}};
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    const Workload& w = workload_named(a.workload);
    const auto out = a.mode == "run" ? run_mode(a, w) : trace_mode(a, w);
    std::cout << json::dump(out);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << '\n';
    return 1;
  }
}
