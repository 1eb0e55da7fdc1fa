// FaultPlan — a FaultConfig compiled into a concrete, seeded schedule.
//
// The plan is built once per run from the *world* seed alone (its own RNG
// stream, salted independently of the algorithm and churn streams), so:
//   * every algorithm in a matrix cell faces the identical fault schedule,
//     exactly as every algorithm sees identical trace churn;
//   * a zero-rate config compiles to an empty plan with zero RNG draws,
//     keeping faults-off runs bit-identical to the committed goldens.
//
// Crash candidates exclude every node the trace itself churns (joins,
// leaves, rejoins), so a crash-stop failure can never race a graceful
// leave on the same node.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "faults/fault_config.hpp"

namespace asap::faults {

class FaultPlan {
 public:
  struct Crash {
    Seconds at = 0.0;         ///< the node goes silent
    Seconds detect_at = 0.0;  ///< neighbors' keep-alives time out
    NodeId node = kInvalidNode;
  };
  struct Window {
    Seconds begin = 0.0;
    Seconds end = 0.0;
  };
  struct Partition {
    Seconds begin = 0.0;
    Seconds end = 0.0;
    std::vector<std::uint32_t> domains;  ///< cut stub domains, sorted
  };
  struct Storm {
    Seconds begin = 0.0;
    Seconds end = 0.0;
  };
  /// One synthetic flash-crowd query: emitted by `node` at `at` against a
  /// single hot `term`. The whole schedule is precomputed at build time so
  /// injection draws nothing at run time.
  struct StormQuery {
    Seconds at = 0.0;
    NodeId node = kInvalidNode;
    KeywordId term = 0;
  };

  FaultPlan() = default;

  /// Compiles `cfg` for one run. Crash/partition/burst times land inside
  /// [measure_start, measure_end); crash nodes are drawn from the initial
  /// population minus every trace-churned node, which arrives as a bitmap
  /// (churned_initial[n] != 0 when the trace joins/leaves/rejoins node n;
  /// World::streaming.churned records it during the build pass).
  static FaultPlan build(const FaultConfig& cfg, std::uint64_t seed,
                         std::uint32_t initial_nodes,
                         std::span<const std::uint8_t> churned_initial,
                         Seconds measure_start, Seconds measure_end,
                         std::uint32_t num_stub_domains);

  const FaultConfig& config() const { return cfg_; }
  const std::vector<Crash>& crashes() const { return crashes_; }
  const std::vector<Window>& bursts() const { return bursts_; }
  const std::vector<Partition>& partitions() const { return partitions_; }
  /// Byzantine role rosters, each sorted by node id. Disjoint from each
  /// other, from trace-churned nodes, and from the crash roster.
  const std::vector<NodeId>& polluters() const { return polluters_; }
  const std::vector<NodeId>& stale_advertisers() const {
    return stale_advertisers_;
  }
  const std::vector<NodeId>& confirm_droppers() const {
    return confirm_droppers_;
  }
  const std::vector<Storm>& storms() const { return storms_; }
  /// Flash-crowd schedule, sorted by (at, node, term).
  const std::vector<StormQuery>& storm_queries() const {
    return storm_queries_;
  }

  bool empty() const {
    return crashes_.empty() && bursts_.empty() && partitions_.empty() &&
           polluters_.empty() && stale_advertisers_.empty() &&
           confirm_droppers_.empty() && storm_queries_.empty() &&
           cfg_.link_loss <= 0.0 && cfg_.latency_jitter <= 0.0;
  }

  /// Earliest moment the run is under fault: the first scheduled event, or
  /// measure_start when a continuous fault (link loss / jitter) is on.
  /// +infinity for an empty plan — then no query counts as "under fault".
  Seconds first_fault_time() const;

 private:
  FaultConfig cfg_;
  Seconds measure_start_ = 0.0;
  std::vector<Crash> crashes_;
  std::vector<Window> bursts_;
  std::vector<Partition> partitions_;
  std::vector<NodeId> polluters_;
  std::vector<NodeId> stale_advertisers_;
  std::vector<NodeId> confirm_droppers_;
  std::vector<Storm> storms_;
  std::vector<StormQuery> storm_queries_;
};

}  // namespace asap::faults
