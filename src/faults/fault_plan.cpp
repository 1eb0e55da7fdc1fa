#include "faults/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace asap::faults {

namespace {

/// Salt for the plan's private RNG stream. Distinct from the algorithm
/// (0x517C...) and churn (0x2545...) salts so arming the fault layer never
/// perturbs either existing stream.
constexpr std::uint64_t kFaultPlanSalt = 0xD1B54A32D192ED03ULL;

/// Salt for the adversary-role stream. Separate from kFaultPlanSalt so
/// arming Byzantine roles or storms never shifts the crash/partition/burst
/// draws of the existing presets (and vice versa).
constexpr std::uint64_t kAdversarySalt = 0x8CB92BA72F3D8DD7ULL;

constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();

}  // namespace

FaultPlan FaultPlan::build(const FaultConfig& cfg, std::uint64_t seed,
                           std::uint32_t initial_nodes,
                           std::span<const std::uint8_t> churned_initial,
                           Seconds measure_start, Seconds measure_end,
                           std::uint32_t num_stub_domains) {
  cfg.validate();
  ASAP_REQUIRE(measure_end > measure_start,
               "fault plan: empty measurement window");
  ASAP_REQUIRE(churned_initial.size() >= initial_nodes,
               "fault plan: churned bitmap smaller than initial population");
  FaultPlan plan;
  plan.cfg_ = cfg;
  plan.measure_start_ = measure_start;
  if (!cfg.any()) return plan;  // zero rates: zero draws, zero events

  Rng rng(seed ^ kFaultPlanSalt);
  const Seconds window = measure_end - measure_start;

  if (cfg.crash_fraction > 0.0 && initial_nodes > 0) {
    // Candidates: initial nodes the trace never churns.
    std::span<const std::uint8_t> churned = churned_initial;
    std::vector<NodeId> candidates;
    candidates.reserve(initial_nodes);
    for (NodeId n = 0; n < initial_nodes; ++n) {
      if (!churned[n]) candidates.push_back(n);
    }
    const auto want = static_cast<std::uint32_t>(
        std::llround(cfg.crash_fraction * static_cast<double>(initial_nodes)));
    const auto count = std::min<std::uint32_t>(
        want, static_cast<std::uint32_t>(candidates.size()));
    const auto picks = rng.sample_indices(
        static_cast<std::uint32_t>(candidates.size()), count);
    plan.crashes_.reserve(count);
    for (const auto idx : picks) {
      Crash c;
      c.node = candidates[idx];
      // Crashes land in the first 80% of the window so their effects (the
      // detection delay, the repair traffic) are observable before the end.
      c.at = measure_start + rng.uniform(0.0, 0.8 * window);
      c.detect_at = c.at + cfg.crash_detection;
      plan.crashes_.push_back(c);
    }
    std::sort(plan.crashes_.begin(), plan.crashes_.end(),
              [](const Crash& a, const Crash& b) {
                if (a.at != b.at) return a.at < b.at;
                return a.node < b.node;
              });
  }

  for (std::uint32_t i = 0; i < cfg.partitions; ++i) {
    Partition p;
    const Seconds latest =
        std::max(0.0, window - cfg.partition_duration);
    p.begin = measure_start + rng.uniform(0.0, latest);
    p.end = p.begin + cfg.partition_duration;
    const auto cut = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::llround(cfg.partition_fraction *
                                                   num_stub_domains)));
    p.domains = rng.sample_indices(
        num_stub_domains, std::min(cut, num_stub_domains));
    std::sort(p.domains.begin(), p.domains.end());
    plan.partitions_.push_back(std::move(p));
  }
  std::sort(plan.partitions_.begin(), plan.partitions_.end(),
            [](const Partition& a, const Partition& b) {
              return a.begin < b.begin;
            });

  for (std::uint32_t i = 0; i < cfg.bursts; ++i) {
    Window w;
    const Seconds latest = std::max(0.0, window - cfg.burst_duration);
    w.begin = measure_start + rng.uniform(0.0, latest);
    w.end = w.begin + cfg.burst_duration;
    plan.bursts_.push_back(w);
  }
  std::sort(plan.bursts_.begin(), plan.bursts_.end(),
            [](const Window& a, const Window& b) { return a.begin < b.begin; });

  if (cfg.adversarial() && initial_nodes > 0) {
    // Dedicated stream: the draws above are untouched whether or not any
    // role is armed, and role rosters are identical across algorithms.
    Rng adv(seed ^ kAdversarySalt);
    // `taken` = nodes no role may claim: trace-churned nodes, crash picks,
    // and previously assigned roles (rosters stay mutually disjoint).
    std::vector<std::uint8_t> taken(churned_initial.begin(),
                                    churned_initial.begin() + initial_nodes);
    for (const auto& c : plan.crashes_) taken[c.node] = 1;
    const auto draw_role = [&](double fraction, std::vector<NodeId>& out) {
      if (fraction <= 0.0) return;  // zero rate: zero draws
      std::vector<NodeId> candidates;
      candidates.reserve(initial_nodes);
      for (NodeId n = 0; n < initial_nodes; ++n) {
        if (!taken[n]) candidates.push_back(n);
      }
      const auto want = static_cast<std::uint32_t>(
          std::llround(fraction * static_cast<double>(initial_nodes)));
      const auto count = std::min<std::uint32_t>(
          want, static_cast<std::uint32_t>(candidates.size()));
      const auto picks = adv.sample_indices(
          static_cast<std::uint32_t>(candidates.size()), count);
      out.reserve(count);
      for (const auto idx : picks) {
        out.push_back(candidates[idx]);
        taken[candidates[idx]] = 1;
      }
      std::sort(out.begin(), out.end());
    };
    draw_role(cfg.polluter_fraction, plan.polluters_);
    draw_role(cfg.stale_advertiser_fraction, plan.stale_advertisers_);
    draw_role(cfg.confirm_dropper_fraction, plan.confirm_droppers_);

    for (std::uint32_t i = 0; i < cfg.storms; ++i) {
      Storm st;
      const Seconds latest = std::max(0.0, window - cfg.storm_duration);
      st.begin = measure_start + adv.uniform(0.0, latest);
      st.end = st.begin + cfg.storm_duration;
      // Emitters: any un-taken node may flash-crowd (emitters across
      // storms may overlap; they hold no persistent role).
      std::vector<NodeId> candidates;
      candidates.reserve(initial_nodes);
      for (NodeId n = 0; n < initial_nodes; ++n) {
        if (!taken[n]) candidates.push_back(n);
      }
      const auto emitters = std::min<std::uint32_t>(
          cfg.storm_emitters, static_cast<std::uint32_t>(candidates.size()));
      const auto picks = adv.sample_indices(
          static_cast<std::uint32_t>(candidates.size()), emitters);
      for (const auto idx : picks) {
        const NodeId emitter = candidates[idx];
        for (std::uint32_t q = 0; q < cfg.storm_queries_per_emitter; ++q) {
          StormQuery sq;
          sq.node = emitter;
          sq.at = st.begin + adv.uniform(0.0, cfg.storm_duration);
          // Hot set: the most popular keywords (low ids under Zipf ranks).
          sq.term = static_cast<KeywordId>(
              adv.uniform_int(0, cfg.storm_hot_terms - 1));
          plan.storm_queries_.push_back(sq);
        }
      }
      plan.storms_.push_back(st);
    }
    std::sort(plan.storms_.begin(), plan.storms_.end(),
              [](const Storm& a, const Storm& b) { return a.begin < b.begin; });
    std::sort(plan.storm_queries_.begin(), plan.storm_queries_.end(),
              [](const StormQuery& a, const StormQuery& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.node != b.node) return a.node < b.node;
                return a.term < b.term;
              });
  }

  return plan;
}

Seconds FaultPlan::first_fault_time() const {
  Seconds first = kInf;
  for (const auto& c : crashes_) first = std::min(first, c.at);
  for (const auto& p : partitions_) first = std::min(first, p.begin);
  for (const auto& w : bursts_) first = std::min(first, w.begin);
  for (const auto& s : storms_) first = std::min(first, s.begin);
  if (!polluters_.empty() || !stale_advertisers_.empty() ||
      !confirm_droppers_.empty()) {
    // Byzantine roles misbehave from the first advertisement on.
    return std::min(first, measure_start_);
  }
  if (cfg_.link_loss > 0.0 || cfg_.latency_jitter > 0.0) {
    // Continuous faults: the whole measurement window is under fault.
    return std::min(first, measure_start_);
  }
  return first;
}

}  // namespace asap::faults
