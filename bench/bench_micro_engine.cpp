// Micro-benchmarks of the event-loop hot path: the seed engine (4-ary
// heap over std::function items, one heap allocation per oversized
// closure) vs the current sim::Engine (ladder queue above the migration
// threshold + SBO EventCallbacks drawing pool blocks for big closures).
//
// Workload is the classic "hold" model for priority queues: pre-fill the
// queue to a fixed depth, then repeatedly pop the earliest event whose
// callback schedules one successor at now + U(0, horizon). Steady-state
// depth stays constant, so ns/event isolates queue + dispatch + closure
// storage cost at that depth.
//
// Two modes:
//   * default            — the usual google-benchmark suite,
//   * --json[=PATH]      — skip google-benchmark and self-time the
//                          seed/current engine pairs at five queue depths
//                          and two closure sizes, writing a
//                          machine-readable report (default
//                          BENCH_engine.json; schema- and threshold-
//                          checked by tools/check_bench_engine.py).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"

namespace {

using asap::Rng;
using asap::Seconds;

constexpr Seconds kHorizon = 1'000.0;  // successor delay ~ U(0, kHorizon)

/// Successor delays come from a precomputed table so the measured loop
/// prices the event loop (pop + dispatch + closure storage + push), not
/// the RNG. 8192 doubles = 64 KiB, L2-resident.
class DeltaTable {
 public:
  DeltaTable() {
    Rng rng(0xDE17A5);
    for (double& d : deltas_) d = rng.uniform(0.0, kHorizon);
  }
  double next() { return deltas_[cur_++ & (kSize - 1)]; }

 private:
  static constexpr std::size_t kSize = 8192;
  double deltas_[kSize];
  std::size_t cur_ = 0;
};

/// Closure payloads. 16 bytes + the captured this-pointer stays inside
/// EventCallback's 40-byte inline buffer (and forces a heap allocation in
/// the seed's std::function, whose libstdc++ inline buffer is 16 bytes —
/// exactly the seed behavior for typical protocol closures). 64 bytes
/// overflows the inline buffer, exercising the SlabPool fallback against
/// std::function's plain operator new.
constexpr std::size_t kInlinePayload = 16;
constexpr std::size_t kPooledPayload = 64;

/// Faithful replica of the pre-ladder engine (the growth seed): a 4-ary
/// heap of (time, seq, std::function) items with the same digest
/// absorption per executed event, so both engines do identical per-event
/// bookkeeping and the measured delta is queue + closure storage only.
class SeedEngine {
 public:
  template <typename F>
  void schedule_at(Seconds t, F&& f) {
    heap_.push_back(Item{t, next_seq_++, std::forward<F>(f)});
    sift_up(heap_.size() - 1);
  }

  bool step() {
    if (heap_.empty()) return false;
    Item item = std::move(heap_.front());
    heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    digest_.absorb(item.time);
    digest_.absorb(item.seq);
    now_ = item.time;
    ++executed_;
    item.cb();
    return true;
  }

  Seconds now() const { return now_; }
  std::uint64_t digest() const { return digest_.value(); }

 private:
  struct Item {
    Seconds time;
    std::uint64_t seq;
    std::function<void()> cb;

    bool before(const Item& other) const {
      if (time != other.time) return time < other.time;
      return seq < other.seq;
    }
  };

  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) {
    Item item = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!item.before(heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(item);
  }

  void sift_down(std::size_t i) {
    const std::size_t n = heap_.size();
    Item item = std::move(heap_[i]);
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + kArity, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (heap_[c].before(heap_[best])) best = c;
      }
      if (!heap_[best].before(item)) break;
      heap_[i] = std::move(heap_[best]);
      i = best;
    }
    heap_[i] = std::move(item);
  }

  std::vector<Item> heap_;
  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  asap::sim::Fnv64 digest_;
};

/// Self-sustaining hold workload over either engine type.
template <typename Eng, std::size_t PayloadBytes>
struct Hold {
  Eng engine;
  DeltaTable deltas;
  std::uint64_t sink = 0;

  struct Payload {
    unsigned char bytes[PayloadBytes];
  };

  void seed_event(Seconds t) {
    Payload p{};
    p.bytes[0] = static_cast<unsigned char>(sink & 0xFF);
    engine.schedule_at(t, [this, p] {
      sink += p.bytes[0] + 1;
      seed_event(engine.now() + deltas.next());
    });
  }

  void fill(std::size_t depth) {
    Rng fill_rng(0xF111);
    for (std::size_t i = 0; i < depth; ++i) {
      seed_event(fill_rng.uniform(0.0, kHorizon));
    }
  }
};

// --- google-benchmark suite ----------------------------------------------

template <typename Eng, std::size_t PayloadBytes>
void run_hold(benchmark::State& state) {
  Hold<Eng, PayloadBytes> h;
  h.fill(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    h.engine.step();
  }
  benchmark::DoNotOptimize(h.sink);
  state.SetItemsProcessed(state.iterations());
}

void BM_HoldSeedInline(benchmark::State& state) {
  run_hold<SeedEngine, kInlinePayload>(state);
}
void BM_HoldSeedPooled(benchmark::State& state) {
  run_hold<SeedEngine, kPooledPayload>(state);
}
void BM_HoldEngineInline(benchmark::State& state) {
  run_hold<asap::sim::Engine, kInlinePayload>(state);
}
void BM_HoldEnginePooled(benchmark::State& state) {
  run_hold<asap::sim::Engine, kPooledPayload>(state);
}

void hold_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t depth :
       {1'024, 16'384, 65'536, 262'144, 1'048'576}) {
    b->Arg(depth);
  }
}
BENCHMARK(BM_HoldSeedInline)->Apply(hold_args);
BENCHMARK(BM_HoldSeedPooled)->Apply(hold_args);
BENCHMARK(BM_HoldEngineInline)->Apply(hold_args);
BENCHMARK(BM_HoldEnginePooled)->Apply(hold_args);

// --- --json mode: self-timed report --------------------------------------

template <typename Eng, std::size_t PayloadBytes>
double ns_per_event(std::size_t depth) {
  using Clock = std::chrono::steady_clock;
  Hold<Eng, PayloadBytes> h;
  h.fill(depth);
  // Warm-up: one full queue turnover settles allocator pools and caches.
  for (std::size_t i = 0; i < depth; ++i) h.engine.step();
  // Min over repetitions: the least-perturbed pass is the standard
  // noise-robust microbench estimator on shared machines.
  constexpr int kReps = 3;
  constexpr auto kMinTime = std::chrono::milliseconds(200);
  constexpr std::uint64_t kBatch = 20'000;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    std::uint64_t events = 0;
    const auto start = Clock::now();
    Clock::duration elapsed{};
    while (elapsed < kMinTime) {
      for (std::uint64_t i = 0; i < kBatch; ++i) h.engine.step();
      events += kBatch;
      elapsed = Clock::now() - start;
    }
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
    best = std::min(best,
                    static_cast<double>(ns) / static_cast<double>(events));
  }
  benchmark::DoNotOptimize(h.sink);
  return best;
}

int run_json_report(const std::string& path) {
  asap::json::Array results;
  for (const std::size_t depth :
       {1'024u, 16'384u, 65'536u, 262'144u, 1'048'576u}) {
    for (const bool pooled : {false, true}) {
      const double seed_ns = pooled
                                 ? ns_per_event<SeedEngine, kPooledPayload>(depth)
                                 : ns_per_event<SeedEngine, kInlinePayload>(depth);
      const double engine_ns =
          pooled ? ns_per_event<asap::sim::Engine, kPooledPayload>(depth)
                 : ns_per_event<asap::sim::Engine, kInlinePayload>(depth);
      const double speedup = seed_ns / engine_ns;
      const char* closure = pooled ? "pooled" : "inline";
      std::printf("depth=%7zu closure=%-6s seed=%7.1f ns  engine=%6.1f ns  "
                  "speedup=%.2fx\n",
                  depth, closure, seed_ns, engine_ns, speedup);
      results.push_back(asap::json::Object{
          {"bench", std::string("engine_hold")},
          {"depth", static_cast<double>(depth)},
          {"closure", std::string(closure)},
          {"seed_ns_per_event", seed_ns},
          {"engine_ns_per_event", engine_ns},
          {"speedup", speedup},
      });
    }
  }
#ifdef NDEBUG
  const bool release = true;
#else
  const bool release = false;
#endif
#ifdef ASAP_AUDIT_FORCE_ON
  const bool audit = true;  // audit hooks inflate per-event cost
#else
  const bool audit = false;
#endif
  const asap::json::Value doc{asap::json::Object{
      {"schema", std::string("asap.bench_engine.v2")},
      {"release_build", release},
      {"audit_build", audit},
      {"unit", std::string("ns_per_event")},
      {"results", std::move(results)},
  }};
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  f << asap::json::dump(doc) << "\n";
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return run_json_report("BENCH_engine.json");
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      return run_json_report(argv[i] + 7);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
