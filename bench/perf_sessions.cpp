// Multi-tenant session-layer benchmarks (DESIGN.md §12): sustained
// localization rounds/sec and p99 round latency at 10/100/1000
// concurrent sessions sharing one SessionManager, plus the
// zero-allocation contract on the admission path under overload.
//
// The fidelity rung scales with the tenant count the way a deployed
// controller would run it: 10 and 100 sessions at the ESPRIT rung
// (search-free super-resolution), 1000 sessions at RSSI-only — the
// ladder's last rung is precisely what makes a thousand tenants
// sustainable at all.
//
// BM_SessionAdmit_Steady is the allocation gate: once a session's
// ingest queue is full, every further offer must be graded, shed, and
// counted without touching the heap. bench_regression.py fails the
// build if its allocs_per_packet counter ever reads nonzero.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/session_manager.hpp"
#include "testbed/deployment.hpp"
#include "testbed/experiment.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

// Same spurious-warning suppression as perf_memory.cpp: our operator
// new hands out malloc'd memory, so free() is the matching deallocator.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace spotfi;

const LinkConfig kLink = LinkConfig::intel5300_40mhz();

struct Feed {
  ExperimentRunner runner;
  std::vector<ApCapture> captures;

  explicit Feed(std::size_t packets)
      : runner(kLink, office_deployment(), make_config(packets)) {
    Rng rng(11);
    captures = runner.simulate_captures({6.0, 3.5}, rng);
  }
  static ExperimentConfig make_config(std::size_t packets) {
    ExperimentConfig config;
    config.packets_per_group = packets;
    return config;
  }
};

constexpr std::size_t kGroupSize = 2;
constexpr std::size_t kApsPerSession = 3;

/// One tenant's config entering the fallback chain at `entry`. A
/// planned overload rung is only a floor on it, so every round of this
/// bench runs at the stage under test (or a cheaper one).
SessionConfig bench_session(const Feed& feed, ApStage entry,
                            std::uint64_t seed) {
  SessionConfig cfg;
  cfg.streaming.group_size = kGroupSize;
  cfg.streaming.server.localizer.area_min = feed.runner.deployment().area_min;
  cfg.streaming.server.localizer.area_max = feed.runner.deployment().area_max;
  cfg.streaming.server.ap.fallback.entry_stage = entry;
  for (std::size_t a = 0; a < kApsPerSession; ++a) {
    cfg.aps.push_back(feed.captures[a].pose);
  }
  cfg.overload.queue_capacity = 2 * kApsPerSession * kGroupSize;
  cfg.seed = seed;
  return cfg;
}

/// Sustained throughput: every iteration offers one full packet group
/// to every session and pumps every session once — n_sessions rounds
/// per iteration. items_per_second therefore reads as rounds/sec; the
/// p99 counter is the 99th-percentile single-round pump latency.
void BM_SessionRounds(benchmark::State& state) {
  const auto n_sessions = static_cast<std::size_t>(state.range(0));
  const ApStage entry =
      n_sessions >= 1000 ? ApStage::kRssiOnly : ApStage::kEsprit;

  Feed feed(kGroupSize);
  SessionManager manager(kLink);
  std::vector<SessionId> ids;
  ids.reserve(n_sessions);
  for (std::size_t s = 0; s < n_sessions; ++s) {
    ids.push_back(manager.open_session(bench_session(feed, entry, 100 + s)));
  }

  std::vector<double> round_s;
  std::size_t rounds = 0;
  for (auto _ : state) {
    for (const SessionId id : ids) {
      for (std::size_t a = 0; a < kApsPerSession; ++a) {
        for (std::size_t p = 0; p < kGroupSize; ++p) {
          benchmark::DoNotOptimize(
              manager.offer(id, a, feed.captures[a].packets[p]));
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      const auto fixes = manager.pump(id);
      const auto t1 = std::chrono::steady_clock::now();
      round_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      benchmark::DoNotOptimize(fixes.data());
    }
    rounds += n_sessions;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));

  std::sort(round_s.begin(), round_s.end());
  const std::size_t p99 =
      std::min(round_s.size() - 1, (round_s.size() * 99) / 100);
  state.counters["p99_round_ms"] = benchmark::Counter(round_s[p99] * 1e3);
  state.counters["sessions"] =
      benchmark::Counter(static_cast<double>(n_sessions));
}
BENCHMARK(BM_SessionRounds)->Arg(10)->Unit(benchmark::kMillisecond);
// One iteration of these fills the time budget, so a single run is one
// sample: repeat them and report the median and its coefficient of
// variation (bench_to_json.sh keeps those two).
BENCHMARK(BM_SessionRounds)
    ->Arg(100)
    ->Arg(1000)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMillisecond);

/// The admission path in overload steady state: the queue is full, so
/// every offer is graded and shed at the boundary. This must not touch
/// the heap — verdict reasons are static strings and the SPSC slots
/// are preallocated — and the regression gate enforces 0 exactly.
void BM_SessionAdmit_Steady(benchmark::State& state) {
  Feed feed(1);
  SessionConfig cfg = bench_session(feed, ApStage::kPrimary, 7);
  cfg.streaming.group_size = 1000000;  // rounds never fire
  cfg.overload.queue_capacity = 64;
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 1;
  SessionManager manager(kLink, mgr_cfg);
  const SessionId id = manager.open_session(cfg);

  // Fill the queue; an empty CsiPacket carries no heap storage, so the
  // measured loop is pure admission machinery.
  while (manager.offer(id, 0, CsiPacket{}).admitted()) {
  }
  const std::size_t allocs = g_allocations.load();
  const std::size_t bytes = g_allocated_bytes.load();
  for (auto _ : state) {
    benchmark::DoNotOptimize(manager.offer(id, 0, CsiPacket{}));
  }
  // Snapshot both deltas before touching the counter map — inserting
  // the first counter allocates and would pollute the second reading.
  const double d_allocs = static_cast<double>(g_allocations.load() - allocs);
  const double d_bytes = static_cast<double>(g_allocated_bytes.load() - bytes);
  const double n = static_cast<double>(state.iterations());
  state.counters["allocs_per_packet"] = benchmark::Counter(d_allocs / n);
  state.counters["bytes_per_packet"] = benchmark::Counter(d_bytes / n);
}
BENCHMARK(BM_SessionAdmit_Steady);

}  // namespace

BENCHMARK_MAIN();
