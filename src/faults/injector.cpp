#include "faults/injector.hpp"

#include <algorithm>
#include <limits>

namespace asap::faults {

namespace {
constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();
}

FaultInjector::FaultInjector(const FaultPlan& plan,
                             const net::TransitStubNetwork& phys,
                             std::uint64_t rng_seed)
    : plan_(plan), phys_(phys), rng_(rng_seed) {
  NodeId max_node = 0;
  for (const auto& c : plan.crashes()) max_node = std::max(max_node, c.node);
  if (!plan.crashes().empty()) {
    crash_window_.assign(max_node + 1, {kInf, kInf});
    for (const auto& c : plan.crashes()) {
      crash_window_[c.node] = {c.at, c.detect_at};
    }
  }
  const auto fill = [](const std::vector<NodeId>& roster,
                       std::vector<std::uint8_t>& bitmap) {
    if (roster.empty()) return;
    bitmap.assign(roster.back() + 1, 0);  // rosters are sorted
    for (const NodeId n : roster) bitmap[n] = 1;
  };
  fill(plan.polluters(), polluter_);
  fill(plan.stale_advertisers(), stale_adv_);
  fill(plan.confirm_droppers(), dropper_);
}

void FaultInjector::arm(sim::Engine& engine, overlay::Overlay& ov,
                        trace::LiveContent& live, sim::Liveness& liveness,
                        obs::RunObserver* obs) {
  arm(engine, ov, live, liveness, obs, StormQueryFn{});
}

void FaultInjector::arm(sim::Engine& engine, overlay::Overlay& ov,
                        trace::LiveContent& live, sim::Liveness& liveness,
                        obs::RunObserver* obs, StormQueryFn on_storm_query) {
  for (const auto& c : plan_.crashes()) {
    engine.schedule_at(c.at, [this, &live, &liveness, obs, c] {
      if (!live.online(c.node)) return;  // defensive; the plan avoids churn
      // The node vanishes without the leave protocol: ground truth flips
      // immediately, the overlay keeps it until keep-alives time out.
      live.set_online(c.node, false);
      liveness.set_online(c.node, false, c.at);
      ++report_.crashes;
      ASAP_OBS_HOOK(obs, on_fault_injected());
      ASAP_OBS_HOOK(obs, trace_fault(c.at, "crash", c.node));
    });
    engine.schedule_at(c.detect_at, [&ov, obs, c] {
      if (ov.attached(c.node)) ov.detach(c.node);
      ASAP_OBS_HOOK(obs, trace_fault(c.detect_at, "detect", c.node));
    });
  }
  // Window begin/end events only count and trace. Partitions and bursts
  // act through transmission_lost(), storms through the queries below.
  for (const auto& p : plan_.partitions()) {
    const Seconds begin = p.begin;
    const Seconds end = p.end;
    engine.schedule_at(begin, [this, obs, begin] {
      ++report_.partitions;
      ASAP_OBS_HOOK(obs, on_fault_injected());
      ASAP_OBS_HOOK(obs, trace_fault(begin, "partition", kInvalidNode));
    });
    engine.schedule_at(end, [obs, end] {
      ASAP_OBS_HOOK(obs, trace_fault(end, "heal", kInvalidNode));
    });
  }
  for (const auto& w : plan_.bursts()) {
    const Seconds begin = w.begin;
    const Seconds end = w.end;
    engine.schedule_at(begin, [this, obs, begin] {
      ++report_.bursts;
      ASAP_OBS_HOOK(obs, on_fault_injected());
      ASAP_OBS_HOOK(obs, trace_fault(begin, "burst", kInvalidNode));
    });
    engine.schedule_at(end, [obs, end] {
      ASAP_OBS_HOOK(obs, trace_fault(end, "burst-end", kInvalidNode));
    });
  }
  for (const auto& s : plan_.storms()) {
    const Seconds begin = s.begin;
    const Seconds end = s.end;
    engine.schedule_at(begin, [this, obs, begin] {
      ASAP_OBS_HOOK(obs, on_fault_injected());
      ASAP_OBS_HOOK(obs, trace_fault(begin, "storm", kInvalidNode));
    });
    engine.schedule_at(end, [obs, end] {
      ASAP_OBS_HOOK(obs, trace_fault(end, "storm-end", kInvalidNode));
    });
  }
  if (on_storm_query && !plan_.storm_queries().empty()) {
    // The schedule was precomputed at plan-build time; delivery draws
    // nothing, so the flash crowd composes with the loss dice untouched.
    for (const auto& sq : plan_.storm_queries()) {
      engine.schedule_at(sq.at, [this, on_storm_query, sq] {
        ++report_.storm_queries;
        on_storm_query(sq);
      });
    }
  }
}

bool FaultInjector::in_partition_cut(PhysNodeId a, PhysNodeId b,
                                     Seconds t) const {
  for (const auto& p : plan_.partitions()) {
    if (t < p.begin || t >= p.end) continue;
    // Island id: 1 + domain for a cut stub domain's members, 0 for the
    // mainland (transit nodes are never cut — they *are* the backbone the
    // domain lost). Two different islands cannot talk.
    const auto island = [&](PhysNodeId n) -> std::uint64_t {
      if (phys_.kind(n) != net::TransitStubNetwork::NodeKind::kStub) return 0;
      const std::uint32_t dom = phys_.stub_domain_of(n);
      return std::binary_search(p.domains.begin(), p.domains.end(), dom)
                 ? 1 + static_cast<std::uint64_t>(dom)
                 : 0;
    };
    if (island(a) != island(b)) return true;
  }
  return false;
}

bool FaultInjector::transmission_lost(PhysNodeId a, PhysNodeId b, Seconds t) {
  const FaultConfig& cfg = plan_.config();
  if (!plan_.partitions().empty() && in_partition_cut(a, b, t)) {
    ++report_.partition_drops;
    return true;
  }
  if (!plan_.bursts().empty()) {
    for (const auto& w : plan_.bursts()) {
      if (t >= w.begin && t < w.end) {
        if (cfg.burst_loss > 0.0 && rng_.chance(cfg.burst_loss)) {
          ++report_.burst_drops;
          return true;
        }
        break;  // windows may overlap, but one correlated roll suffices
      }
    }
  }
  if (cfg.link_loss > 0.0 && rng_.chance(cfg.link_loss)) {
    ++report_.link_drops;
    return true;
  }
  return false;
}

}  // namespace asap::faults
