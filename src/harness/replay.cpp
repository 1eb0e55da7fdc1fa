#include "harness/replay.hpp"

#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "common/resource.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "search/context.hpp"
#include "sim/engine.hpp"
#include "sim/liveness.hpp"
#include "trace/live_content.hpp"
#include "trace/streaming_trace_gen.hpp"

namespace asap::harness {

const char* algo_name(AlgoKind k) {
  switch (k) {
    case AlgoKind::kFlooding:
      return "flooding";
    case AlgoKind::kRandomWalk:
      return "random-walk";
    case AlgoKind::kGsa:
      return "gsa";
    case AlgoKind::kAsapFld:
      return "asap(fld)";
    case AlgoKind::kAsapRw:
      return "asap(rw)";
    case AlgoKind::kAsapGsa:
      return "asap(gsa)";
    case AlgoKind::kAsapAdaptive:
      return "asap-adaptive";
    case AlgoKind::kAsapDelta:
      return "asap-delta";
  }
  return "?";
}

std::optional<AlgoKind> algo_from_name(std::string_view name) {
  for (const auto k : kExtendedAlgos) {
    if (name == algo_name(k)) return k;
  }
  return std::nullopt;
}

bool is_asap(AlgoKind k) {
  return k == AlgoKind::kAsapFld || k == AlgoKind::kAsapRw ||
         k == AlgoKind::kAsapGsa || k == AlgoKind::kAsapAdaptive ||
         k == AlgoKind::kAsapDelta;
}

std::uint64_t trial_seed_salt(std::uint32_t trial) {
  if (trial == 0) return 0;  // trial 0 == the unsalted canonical run
  return SplitMix64(trial).next();
}

std::vector<sim::Traffic> load_categories(AlgoKind k) {
  if (is_asap(k)) {
    // kPackedAd is always zero for the vanilla variants, so listing it
    // changes no legacy metric (zero-byte categories contribute nothing
    // to load or breakdown shares).
    return {sim::Traffic::kConfirm, sim::Traffic::kAdsRequest,
            sim::Traffic::kFullAd, sim::Traffic::kPatchAd,
            sim::Traffic::kRefreshAd, sim::Traffic::kPackedAd};
  }
  return {sim::Traffic::kQuery};
}

namespace {

search::Scheme scheme_of(AlgoKind k) {
  switch (k) {
    case AlgoKind::kFlooding:
    case AlgoKind::kAsapFld:
      return search::Scheme::kFlooding;
    case AlgoKind::kRandomWalk:
    case AlgoKind::kAsapRw:
    case AlgoKind::kAsapAdaptive:
    case AlgoKind::kAsapDelta:
      return search::Scheme::kRandomWalk;
    case AlgoKind::kGsa:
    case AlgoKind::kAsapGsa:
      return search::Scheme::kGsa;
  }
  return search::Scheme::kFlooding;
}

/// The fault config a run arms, if any. An explicit opts.faults arms the
/// injector even at zero rates; otherwise only a non-zero cfg.faults does,
/// so a default run builds nothing and keeps the historical digest.
std::optional<faults::FaultConfig> armed_faults(const ExperimentConfig& cfg,
                                                const RunOptions& opts) {
  if (opts.faults.has_value()) return opts.faults;
  if (cfg.faults.any()) return cfg.faults;
  return std::nullopt;
}

/// Hardening and defense knobs ride the fault config, so a faults-off run
/// keeps the legacy protocol behaviour bit for bit (0 = protocol default).
void apply_fault_knobs(const faults::FaultConfig& fc, ads::AsapParams& p) {
  if (fc.confirm_attempts > 0) p.confirm_max_attempts = fc.confirm_attempts;
  if (fc.stale_strikes > 0) p.stale_timeout_strikes = fc.stale_strikes;
  if (fc.confirm_backoff > 0.0) p.confirm_retry_backoff = fc.confirm_backoff;
  if (fc.trust_enabled) {
    p.trust_enabled = true;
    p.trust_reward = fc.trust_reward;
    p.trust_strike_decay = fc.trust_strike_decay;
    p.trust_quarantine_threshold = fc.trust_quarantine_threshold;
    p.trust_quarantine_backoff = fc.trust_quarantine_backoff;
  }
  if (fc.trust_fill_gate > 0.0) p.trust_fill_gate = fc.trust_fill_gate;
  if (fc.strike_per_chain) p.strike_per_chain = true;
  if (fc.pending_query_cap > 0) p.pending_query_cap = fc.pending_query_cap;
  if (fc.ttl_clamp_depth > 0) p.ttl_clamp_depth = fc.ttl_clamp_depth;
}

/// ASAP's results beyond the common set: its event counters and the
/// advertisement bytes of the measurement window.
void finish_asap(const search::SearchAlgorithm& algo, RunResult& res) {
  res.asap = true;
  res.asap_counters = static_cast<const ads::AsapProtocol&>(algo).counters();
  for (const auto& share : res.breakdown) {
    switch (share.category) {
      case sim::Traffic::kFullAd:
      case sim::Traffic::kPatchAd:
      case sim::Traffic::kRefreshAd:
        res.ad_bytes_total += share.bytes;
        break;
      case sim::Traffic::kPackedAd:
        res.ad_bytes_total += share.bytes;
        res.ad_bytes_packed += share.bytes;
        break;
      default:
        break;
    }
  }
}

}  // namespace

search::BaselineParams default_baseline_params(AlgoKind k, Preset preset) {
  ASAP_REQUIRE(!is_asap(k), "not a baseline algorithm");
  return preset == Preset::kPaper
             ? search::BaselineParams::paper(scheme_of(k))
             : search::BaselineParams::small(scheme_of(k));
}

ads::AsapParams default_asap_params(AlgoKind k, Preset preset) {
  ASAP_REQUIRE(is_asap(k), "not an ASAP variant");
  auto params = preset == Preset::kPaper ? ads::AsapParams::paper(scheme_of(k))
                                         : ads::AsapParams::small(scheme_of(k));
  if (k == AlgoKind::kAsapAdaptive) {
    params.ad_mode = ads::AdMode::kAdaptive;
  } else if (k == AlgoKind::kAsapDelta) {
    params.ad_mode = ads::AdMode::kDelta;
  }
  if (params.ad_mode != ads::AdMode::kVanilla) {
    // Adaptive variants ship the stale-readmit hygiene fix by default; the
    // vanilla variants keep the legacy (0 = off) behaviour bit for bit.
    params.stale_readmit_backoff = 30.0;
  }
  return params;
}

RunResult run_experiment(const World& world, AlgoKind kind,
                         const RunOptions& opts) {
  SystemSpec system;
  system.name = algo_name(kind);
  system.load_categories = load_categories(kind);
  const Preset preset = world.cfg.preset;
  if (!is_asap(kind)) {
    const auto params =
        opts.baseline.value_or(default_baseline_params(kind, preset));
    system.make = [params](search::Ctx& ctx) {
      return std::make_unique<search::BaselineSearch>(ctx, params);
    };
    return run_experiment(world, system, opts);
  }
  auto params = opts.asap.value_or(default_asap_params(kind, preset));
  if (const auto fc = armed_faults(world.cfg, opts)) {
    apply_fault_knobs(*fc, params);
  }
  system.make = [params](search::Ctx& ctx) {
    return std::make_unique<ads::AsapProtocol>(ctx, params);
  };
  system.finish = finish_asap;
  return run_experiment(world, system, opts);
}

RunResult run_experiment(const World& world, const SystemSpec& system,
                         const RunOptions& opts) {
  const auto wall_start = std::chrono::steady_clock::now();
  const auto& cfg = world.cfg;
  const Seconds warmup = cfg.warmup;
  const Seconds horizon = warmup + world.trace.horizon + 30.0;

  // Per-run mutable state.
  overlay::Overlay ov = world.base_overlay;  // copy: churn mutates it
  trace::LiveContent live(world.model);
  trace::ContentIndex index(world.model, live);
  sim::Liveness liveness(world.model.total_node_slots(),
                         world.model.params().initial_nodes);
  sim::Engine engine;
  sim::BandwidthLedger ledger(horizon);
  // The algorithm's randomness and the world's churn randomness are kept
  // in separate streams so every algorithm sees identical churn.
  Rng algo_rng(cfg.seed ^ 0x517CC1B727220A95ULL ^ opts.seed_salt);
  Rng churn_rng(cfg.seed ^ 0x2545F4914F6CDD1DULL);

  search::Ctx ctx{ov,     world.phys, world.node_phys, world.model, live,
                  index,  engine,     ledger,          cfg.sizes,   algo_rng};
  ASAP_REQUIRE(opts.message_loss >= 0.0 && opts.message_loss <= 1.0,
               "message loss probability out of [0,1]");
  ctx.message_loss = opts.message_loss;

  std::unique_ptr<sim::SimAuditor> auditor;
  if (opts.audit) {
    auditor = std::make_unique<sim::SimAuditor>();
    engine.set_auditor(auditor.get());
    ledger.set_auditor(auditor.get());
    ctx.auditor = auditor.get();
  }

  // Observability is strictly read-only: the observer sees engine and
  // ledger activity but never schedules events or touches the RNG, so the
  // run digest is identical with or without it.
  if (opts.observer != nullptr) {
    engine.set_observer(opts.observer);
    ledger.set_observer(opts.observer);
    ctx.obs = opts.observer;
  }

  // Fault layer: the plan derives from the world seed alone (same schedule
  // for every algorithm); the injector's own verdict RNG is salted per
  // trial like the algorithm stream. The planner takes the churn bitmap
  // the world's build pass recorded.
  const std::optional<faults::FaultConfig> fault_cfg = armed_faults(cfg, opts);
  std::unique_ptr<faults::FaultPlan> plan;
  std::unique_ptr<faults::FaultInjector> injector;
  if (fault_cfg) {
    fault_cfg->validate();
    plan = std::make_unique<faults::FaultPlan>(faults::FaultPlan::build(
        *fault_cfg, cfg.seed, world.model.params().initial_nodes,
        std::span<const std::uint8_t>(world.streaming.churned), warmup,
        warmup + world.trace.horizon,
        world.phys.params().total_stub_domains()));
    injector = std::make_unique<faults::FaultInjector>(
        *plan, world.phys, cfg.seed ^ 0x9E3779B97F4A7C15ULL ^ opts.seed_salt);
    ctx.faults = injector.get();
  }

  const std::unique_ptr<search::SearchAlgorithm> algo = system.make(ctx);
  ASAP_REQUIRE(algo != nullptr, "system factory returned no algorithm");
  if (injector != nullptr) {
    algo->set_fault_onset(plan->first_fault_time());
    if (plan->storm_queries().empty()) {
      injector->arm(engine, ov, live, liveness, opts.observer);
    } else {
      // Flash-crowd queries run the full protocol path (bandwidth, pending
      // slots, shedding) but are excluded from SearchStats — the measured
      // workload stays the legitimate trace.
      search::SearchAlgorithm* raw = algo.get();
      injector->arm(engine, ov, live, liveness, opts.observer,
                    [raw](const faults::FaultPlan::StormQuery& sq) {
                      trace::TraceEvent ev;
                      ev.type = trace::TraceEventType::kQuery;
                      ev.time = sq.at;
                      ev.node = sq.node;
                      ev.terms[0] = sq.term;
                      ev.num_terms = 1;
                      raw->inject_synthetic_query(ev);
                    });
    }
  }

  obs::PhaseProfiler profiler;
  profiler.begin("warm-up", engine.executed());
  algo->warm_up(warmup);
  // Drain warm-up dissemination before the trace replay so the profiler
  // attributes its events to the right phase. This is a no-op for the
  // digest: the first trace event sits at >= warmup, so these events
  // would execute first (in identical heap order) either way.
  engine.run_until(warmup);

  profiler.begin("query-replay", engine.executed());
  // The trace, re-synthesized on demand against the immutable model.
  trace::StreamingTraceGenerator stream(world.model, cfg.trace,
                                        world.streaming.rng,
                                        world.streaming.mint_base);
  trace::TraceEvent ev;
  while (stream.next(ev)) {
    const Seconds t = ev.time + warmup;
    engine.run_until(t);

    // World updates first, then the algorithm reacts.
    switch (ev.type) {
      case trace::TraceEventType::kJoin: {
        const NodeId id = ov.attach_new(cfg.join_degree, churn_rng);
        ASAP_CHECK(id == ev.node);
        liveness.set_online(ev.node, true, t);
        ASAP_OBS_HOOK(opts.observer, trace_churn(t, ev.node, "join"));
        break;
      }
      case trace::TraceEventType::kLeave:
        ov.detach(ev.node);
        liveness.set_online(ev.node, false, t);
        ASAP_OBS_HOOK(opts.observer, trace_churn(t, ev.node, "leave"));
        break;
      case trace::TraceEventType::kRejoin:
        ov.reattach(ev.node, cfg.join_degree, churn_rng);
        liveness.set_online(ev.node, true, t);
        ASAP_OBS_HOOK(opts.observer, trace_churn(t, ev.node, "rejoin"));
        break;
      default:
        break;
    }
    live.apply(ev, world.model);
    index.apply(ev, world.model);

    trace::TraceEvent shifted = ev;
    shifted.time = t;
    algo->on_trace_event(shifted);
  }
  engine.run_until(horizon);
  profiler.begin("reduce", engine.executed());

  // --- reduce -----------------------------------------------------------
  RunResult res;
  res.algo = system.name;
  res.search = algo->stats();
  res.measure_start = warmup;
  res.measure_end = warmup + world.trace.horizon;
  res.engine_events = engine.executed();
  res.digest = sim::combine_digests(engine.digest(), ledger.digest());
  if (auditor != nullptr) {
    auditor->finalize(ledger);
    res.audited = true;
    res.audit_violations = auditor->summary().violations;
    res.audit_messages = auditor->violations();
  }

  const auto live_series = liveness.live_count_series(horizon);
  const auto& cats = system.load_categories;
  res.load = metrics::reduce_load(
      ledger, cats, live_series,
      static_cast<std::uint32_t>(res.measure_start),
      static_cast<std::uint32_t>(std::ceil(res.measure_end)));
  res.breakdown = metrics::category_breakdown(
      ledger, cats, static_cast<std::uint32_t>(res.measure_start),
      static_cast<std::uint32_t>(std::ceil(res.measure_end)));
  if (system.finish) system.finish(*algo, res);
  if (injector != nullptr) {
    const auto& rep = injector->report();
    res.faults.enabled = true;
    res.faults.crashes = rep.crashes;
    res.faults.partitions = rep.partitions;
    res.faults.bursts = rep.bursts;
    res.faults.link_drops = rep.link_drops;
    res.faults.burst_drops = rep.burst_drops;
    res.faults.partition_drops = rep.partition_drops;
    res.faults.dead_sends = rep.dead_sends;
    res.faults.first_fault_time = plan->first_fault_time();
    res.faults.queries_after_onset = res.search.total_after_onset();
    res.faults.successes_after_onset = res.search.successes_after_onset();
    res.faults.success_rate_after_onset =
        res.search.success_rate_after_onset();
    res.faults.adversarial = fault_cfg->adversarial_or_defended();
    if (res.faults.adversarial) {
      res.faults.polluters = plan->polluters().size();
      res.faults.stale_advertisers = plan->stale_advertisers().size();
      res.faults.confirm_droppers = plan->confirm_droppers().size();
      res.faults.storms = plan->storms().size();
      res.faults.storm_queries = rep.storm_queries;
      const auto& ac = res.asap_counters;  // zero-initialized for baselines
      res.faults.polluted_ads = ac.polluted_ads;
      res.faults.forced_negatives = ac.forced_negatives;
      res.faults.dropped_confirms = ac.dropped_confirms;
      res.faults.trust_strikes = ac.trust_strikes;
      res.faults.quarantines = ac.quarantines;
      res.faults.readmissions = ac.readmissions;
      res.faults.queries_shed = ac.queries_shed;
      res.faults.ttl_clamped = ac.ttl_clamped;
      res.faults.peak_pending_depth = ac.peak_pending_depth;
    }
  }
  if (opts.observer != nullptr) opts.observer->finalize(horizon);
  profiler.end(engine.executed());
  res.profile = profiler.phases();
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  res.events_per_sec = res.wall_seconds > 0.0
                           ? static_cast<double>(res.engine_events) /
                                 res.wall_seconds
                           : 0.0;
  res.state_bytes = algo->state_bytes();
  res.peak_rss_bytes = peak_rss_bytes();
  return res;
}

}  // namespace asap::harness
