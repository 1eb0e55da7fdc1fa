// Layer probes: drive one layer's public functions on inputs taken from a
// workload's World and time them from outside the program.
//
// Every probe records its timed batches as spans in a SpanLog (held in
// memory, written out by the caller when the run ends) and adds its
// per-layer metrics and self-checks to a ProbeReport. Nothing here changes
// the simulator: probes build their own Ctx, caches and ledgers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/replay.hpp"
#include "harness/world.hpp"

namespace perfbench {

/// Timed spans of one benchmark process. A span names the layer call it
/// wraps, the span that caused it, and how many operations it covered.
class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t ops = 0;
  };

  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span; returns its id for end() and as a parent id.
  int begin(std::string name, int parent = -1);
  /// Closes span `id`, recording the operation count it covered.
  void end(int id, std::uint64_t ops);
  /// Duration of a closed span in seconds.
  double seconds(int id) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// One named self-check of a probe's results.
struct Check {
  std::string name;
  bool ok = false;
};

struct ProbeReport {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<Check> checks;

  void put(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void check(std::string name, bool ok) {
    checks.push_back({std::move(name), ok});
  }
};

/// Runs the layer probes against `world` (the workload's own World), each
/// bounded in work. The ad cache and Bloom probes run only when `asap` (the
/// workload runs an ASAP algorithm); otherwise their metrics are reported
/// as 0, so the per-layer metric set is the same everywhere.
/// `engine_events` is the workload's engine event count; the engine probe
/// times that many events.
void run_probes(const asap::harness::World& world, bool asap,
                std::uint64_t engine_events, SpanLog& log, ProbeReport& out);

}  // namespace perfbench
