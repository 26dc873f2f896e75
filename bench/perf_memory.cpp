// Memory-traffic benchmarks for the zero-allocation hot path (DESIGN.md
// §11): heap allocations and bytes per packet through the estimation
// stage, on the value calling convention (thin wrappers that allocate
// results around the shared view kernels) and on the arena path. The
// arena numbers must read 0 alloc/packet in steady state — the same
// contract tests/alloc_test.cpp enforces, measured here so the bench
// JSON trails it across PRs.
//
// Counters live in global operator new/delete overrides local to this
// binary; google-benchmark counters report allocations and bytes per
// iteration (one iteration = one packet).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "channel/csi_synthesis.hpp"
#include "common/angles.hpp"
#include "common/workspace.hpp"
#include "core/ap_processor.hpp"
#include "csi/sanitize.hpp"

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

// The replacement operator new above hands out malloc'd memory, so
// free() here is the matching deallocator; GCC can't see that pairing
// once the benchmark headers inline these and warns spuriously.
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

CsiPacket test_packet() {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ImpairmentConfig imp;
  const CsiSynthesizer synth(link, imp);
  std::vector<PathComponent> paths;
  const double aoas[] = {-50.0, -10.0, 15.0, 45.0, 70.0};
  const double tofs[] = {20e-9, 60e-9, 110e-9, 170e-9, 240e-9};
  for (int l = 0; l < 5; ++l) {
    PathComponent p;
    p.aoa_rad = deg_to_rad(aoas[l]);
    p.tof_s = tofs[l];
    p.gain_db = -50.0 - 2.0 * l;
    paths.push_back(p);
  }
  Rng rng(7);
  CsiPacket packet;
  packet.csi = synth.synthesize(paths, 0.0, rng).csi;
  packet.rssi_dbm = -48.0;
  return packet;
}

void report_memory(benchmark::State& state, std::size_t allocs_before,
                   std::size_t bytes_before) {
  const double n = static_cast<double>(state.iterations());
  state.counters["allocs_per_packet"] = benchmark::Counter(
      static_cast<double>(g_allocations.load() - allocs_before) / n);
  state.counters["bytes_per_packet"] = benchmark::Counter(
      static_cast<double>(g_allocated_bytes.load() - bytes_before) / n);
}

/// The per-packet estimation stage on the value calling convention:
/// the ergonomic wrappers allocate owning results around the same view
/// kernels the arena path runs (a handful of allocations per packet —
/// down from hundreds before the refactor, but not zero).
void BM_PacketEstimate_ValueApi(benchmark::State& state) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const CsiPacket packet = test_packet();
  const JointMusicEstimator music(link, {});
  const std::size_t allocs = g_allocations.load();
  const std::size_t bytes = g_allocated_bytes.load();
  for (auto _ : state) {
    const CMatrix csi = std::move(sanitize_tof(packet.csi, link).csi);
    benchmark::DoNotOptimize(music.estimate(csi));
  }
  report_memory(state, allocs, bytes);
}
BENCHMARK(BM_PacketEstimate_ValueApi);

/// The same stage on the arena path (ApProcessor::estimate_packet):
/// steady state must report 0 allocs/packet and 0 bytes/packet.
void BM_PacketEstimate_Workspace(benchmark::State& state) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const CsiPacket packet = test_packet();
  const ApProcessor processor(link, ArrayPose{{0.0, 0.0}, 0.0}, {});
  Workspace ws;
  std::vector<PathEstimate> out(processor.max_paths());
  // Warm-up: grow, then coalesce to one block.
  benchmark::DoNotOptimize(processor.estimate_packet(packet, ws, out));
  ws.reset();
  benchmark::DoNotOptimize(processor.estimate_packet(packet, ws, out));
  const std::size_t allocs = g_allocations.load();
  const std::size_t bytes = g_allocated_bytes.load();
  for (auto _ : state) {
    benchmark::DoNotOptimize(processor.estimate_packet(packet, ws, out));
  }
  report_memory(state, allocs, bytes);
  state.counters["arena_high_water_bytes"] =
      benchmark::Counter(static_cast<double>(ws.stats().high_water_bytes));
}
BENCHMARK(BM_PacketEstimate_Workspace);

/// Whole packet-group stage (process_robust: screen + sanitize +
/// estimate + pool + cluster + select) with a warmed arena: allocations
/// here are the per-group constant (slot buffers, result vectors),
/// amortized per packet by the group size.
void BM_GroupProcess_Workspace(benchmark::State& state) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const std::size_t n_packets = static_cast<std::size_t>(state.range(0));
  std::vector<CsiPacket> packets(n_packets, test_packet());
  const ApProcessor processor(link, ArrayPose{{0.0, 0.0}, 0.0}, {});
  Rng rng(3);
  benchmark::DoNotOptimize(processor.process_robust(packets, rng));
  thread_workspace().reset();
  benchmark::DoNotOptimize(processor.process_robust(packets, rng));
  const std::size_t allocs = g_allocations.load();
  const std::size_t bytes = g_allocated_bytes.load();
  for (auto _ : state) {
    benchmark::DoNotOptimize(processor.process_robust(packets, rng));
  }
  const double n =
      static_cast<double>(state.iterations()) * static_cast<double>(n_packets);
  state.counters["allocs_per_packet"] = benchmark::Counter(
      static_cast<double>(g_allocations.load() - allocs) / n);
  state.counters["bytes_per_packet"] = benchmark::Counter(
      static_cast<double>(g_allocated_bytes.load() - bytes) / n);
}
BENCHMARK(BM_GroupProcess_Workspace)->Arg(10)->Arg(40);

}  // namespace

BENCHMARK_MAIN();
