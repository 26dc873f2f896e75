// The zero-allocation contract of the estimation hot path (DESIGN.md
// §11): after the scratch arena has warmed up, pushing one packet through
// the sanitize -> smoothing -> covariance -> eigendecomposition ->
// pseudo-spectrum -> peaks stage performs ZERO heap allocations, and a
// packet group's allocation count is a constant plus the per-group slot
// buffers — independent of how many packets the group holds.
//
// The counter lives in global operator new/delete overrides local to this
// test binary. That makes the assertions exact, not statistical: a single
// stray std::vector on the packet path turns the steady-state count
// nonzero and fails loudly.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "channel/csi_synthesis.hpp"
#include "channel/multipath.hpp"
#include "common/telemetry.hpp"
#include "common/workspace.hpp"
#include "core/ap_processor.hpp"
#include "csi/sanitize.hpp"
#include "geom/floorplan.hpp"
#include "testbed/experiment.hpp"

// --- counting allocator -----------------------------------------------

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

// Out of line: once inlined at -O2, g++ pairs the std::free with the
// caller's `new` and warns -Wmismatched-new-delete, which -Werror turns
// into a build failure.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();
/// The spectrum sweep's per-column noise Grams on the default grid (320
/// ToF columns, 2 x 2 real degrees of freedom each), which stay checked
/// out through the peak search: a lower bound on any joint MUSIC
/// packet's high-water mark.
constexpr std::size_t kGramTableBytes = 320 * 4 * sizeof(double);
/// The per-packet footprint ceiling on these packets: the sweep keeps
/// only the ToF columns that can reach the peak floor (1.4 KB each), not
/// the 181 x 320 grid (~463 KB).
constexpr std::size_t kPacketArenaCeiling = 128 * 1024;

std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::vector<CsiPacket> synthesize_group(std::size_t n_packets,
                                        unsigned seed = 11) {
  FloorPlan plan;
  const ArrayPose pose{{0.0, 0.0}, 0.0};
  const Vec2 target{8.0, 2.0};
  MultipathConfig mp;
  const auto paths = enumerate_paths(plan, {}, pose, target, mp);
  const CsiSynthesizer synth(kLink, ImpairmentConfig{});
  Rng rng(seed);
  return synth.synthesize_burst(paths, n_packets, 0.1, rng);
}

// --- the contract ------------------------------------------------------

TEST(ZeroAlloc, SteadyStatePacketAllocatesNothing) {
  const auto packets = synthesize_group(4);
  const ApProcessor processor(kLink, ArrayPose{{0.0, 0.0}, 0.0}, {});

  Workspace ws;
  std::vector<PathEstimate> out(processor.max_paths());

  // Warm-up: the first packet grows the arena block by block.
  (void)processor.estimate_packet(packets[0], ws, out);
  ws.reset();  // coalesce into one contiguous block
  (void)processor.estimate_packet(packets[1], ws, out);

  const WorkspaceStats warmed = ws.stats();
  const std::size_t before = allocations();
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const std::size_t n = processor.estimate_packet(packets[i], ws, out);
    EXPECT_GT(n, 0u);
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "the estimation path touched the heap after warm-up";

  // The arena itself must not have grown either.
  const WorkspaceStats after = ws.stats();
  EXPECT_EQ(after.block_allocations, warmed.block_allocations);
  EXPECT_EQ(after.capacity_bytes, warmed.capacity_bytes);
}

TEST(ZeroAlloc, EspritSteadyStatePacketAllocatesNothing) {
  const auto packets = synthesize_group(4);
  ApProcessorConfig cfg;
  cfg.front_end = FrontEnd::kEsprit;
  const ApProcessor processor(kLink, ArrayPose{{0.0, 0.0}, 0.0}, cfg);

  Workspace ws;
  std::vector<PathEstimate> out(processor.max_paths());
  (void)processor.estimate_packet(packets[0], ws, out);
  ws.reset();
  (void)processor.estimate_packet(packets[1], ws, out);

  const std::size_t before = allocations();
  for (const auto& packet : packets) {
    (void)processor.estimate_packet(packet, ws, out);
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "the ESPRIT estimation path touched the heap after warm-up";
}

TEST(ZeroAlloc, GroupAllocationCountIndependentOfGroupSize) {
  // process_robust allocates per *group* (output slots, pooled estimates,
  // cluster summaries), never per packet: the quality screen checks a
  // clean group in place, and the marginal allocation cost of 10 extra
  // packets must be zero beyond the linear slot-buffer resize. Comparing
  // two group sizes with warmed arenas makes that observable without
  // hard-coding the per-group constant.
  const auto group_small = synthesize_group(10);
  const auto group_large = synthesize_group(20);
  const ApProcessor processor(kLink, ArrayPose{{0.0, 0.0}, 0.0}, {});
  Rng rng(3);

  // Warm the calling thread's arena with the larger group.
  (void)processor.process_robust(group_large, rng);
  thread_workspace().reset();
  (void)processor.process_robust(group_large, rng);

  const std::size_t before_small = allocations();
  const ApOutcome small = processor.process_robust(group_small, rng);
  const std::size_t count_small = allocations() - before_small;

  const std::size_t before_large = allocations();
  const ApOutcome large = processor.process_robust(group_large, rng);
  const std::size_t count_large = allocations() - before_large;
  ASSERT_EQ(small.stage, ApStage::kPrimary) << small.note;
  ASSERT_EQ(large.stage, ApStage::kPrimary) << large.note;

  // The only size-dependent allocations are the group's slot/pool
  // vectors (a constant *number* of allocations of size-dependent
  // length) — so the allocation *count* must match exactly.
  EXPECT_EQ(count_small, count_large)
      << "per-packet heap allocations crept into the group pipeline";
}

TEST(ZeroAlloc, ArenaHighWaterMarkIsPinned) {
  // The per-packet footprint of the default MUSIC configuration. A
  // regression here means a buffer moved onto the arena (fine, update the
  // bound) or a config change exploded the grid (worth noticing either
  // way). Default grid: the sweep's per-column Grams, the swept ToF
  // columns (181 cells each, about a dozen on these packets) and the
  // smoothing/eigen scratch; 84,480 B when last measured.
  const auto packets = synthesize_group(2);
  const ApProcessor processor(kLink, ArrayPose{{0.0, 0.0}, 0.0}, {});
  Workspace ws;
  std::vector<PathEstimate> out(processor.max_paths());
  (void)processor.estimate_packet(packets[0], ws, out);
  (void)processor.estimate_packet(packets[1], ws, out);

  const WorkspaceStats stats = ws.stats();
  EXPECT_GT(stats.high_water_bytes, kGramTableBytes);
  EXPECT_LT(stats.high_water_bytes, kPacketArenaCeiling)
      << "per-packet arena footprint grew: " << stats.high_water_bytes;
  EXPECT_EQ(stats.used_bytes, 0u);  // frames rewound cleanly
}

TEST(ZeroAlloc, StagedPacketPathAllocatesNothing) {
  // The same contract through the metered kernels directly (DESIGN.md
  // §15), as a group run meters each packet: sanitize_tof under a
  // kSanitize meter, then MUSIC's stage_subspace and stage_spectrum
  // under kSubspace and kSpectrum, WITH the telemetry sink armed — no
  // StageMeter may touch the heap after warm-up.
  const auto packets = synthesize_group(4);
  const JointMusicEstimator est(kLink, JointMusicConfig{});

  Workspace ws;
  std::vector<PathEstimate> out(est.config().max_paths);
  StageBreakdown breakdown;

  auto run_packet = [&](const CsiPacket& packet) {
    Workspace::Frame frame(ws);
    ConstCMatrixView csi;
    {
      StageMeter meter(&breakdown, frame, StagePhase::kSanitize);
      csi = sanitize_tof(ConstCMatrixView(packet.csi), kLink, ws);
    }
    SubspacesRef sub;
    {
      StageMeter meter(&breakdown, frame, StagePhase::kSubspace);
      sub = est.stage_subspace(csi, ws);
    }
    StageMeter meter(&breakdown, frame, StagePhase::kSpectrum);
    return est.stage_spectrum(sub, ws, out);
  };

  (void)run_packet(packets[0]);
  ws.reset();
  (void)run_packet(packets[1]);

  const std::size_t before = allocations();
  for (const auto& packet : packets) {
    EXPECT_GT(run_packet(packet), 0u);
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "the staged estimation path touched the heap after warm-up";
  EXPECT_TRUE(breakdown.any());
}

TEST(ZeroAlloc, WorkspacePeakTelemetryRidesApOutcome) {
  const auto packets = synthesize_group(6);
  const ApProcessor processor(kLink, ArrayPose{{0.0, 0.0}, 0.0}, {});
  Rng rng(5);
  const ApOutcome outcome = processor.process_robust(packets, rng);
  ASSERT_TRUE(outcome.usable);
  EXPECT_EQ(outcome.stage, ApStage::kPrimary);
  EXPECT_GT(outcome.workspace_peak_bytes, kGramTableBytes);
  EXPECT_LT(outcome.workspace_peak_bytes, kPacketArenaCeiling)
      << outcome.workspace_peak_bytes;
}

TEST(ZeroAlloc, WarmLocateAllocatesOncePerSeedPlusOne) {
  // The Eq. 9 solve keeps its per-AP term table, per-point distances and
  // every LM buffer (residuals, finite-difference probes, Jacobian) on
  // the arena. What stays on the heap is each multi-start seed's
  // LevMarResult::x, plus at most one residual closure. The set: the six
  // served observations of one office round (perf_pipeline's fixture).
  ExperimentConfig ecfg;
  ecfg.packets_per_group = 10;
  const ExperimentRunner runner(kLink, office_deployment(), ecfg);
  Rng rng(3);
  const auto captures = runner.simulate_captures({6.0, 3.5}, rng);
  const SpotFiServer server(kLink, runner.config().server);
  const auto round = server.try_localize(captures, rng);
  ASSERT_TRUE(round.has_value());
  std::vector<ApObservation> obs;
  for (const auto& r : round->ap_results) obs.push_back(r.observation);
  ASSERT_EQ(obs.size(), 6u);

  const SpotFiLocalizer localizer(runner.config().server.localizer);
  Workspace ws;
  (void)localizer.locate(obs, ws);
  ws.reset();
  const WorkspaceStats warmed = ws.stats();

  const std::size_t before = allocations();
  const LocationEstimate est = localizer.locate(obs, ws);
  const std::size_t n_allocs = allocations() - before;
  const std::size_t seeds = kSeedGrid * kSeedGrid + 1;
  EXPECT_EQ(est.starts_tried, seeds);
  EXPECT_LE(n_allocs, seeds + 1)
      << "a warm locate() allocated per residual evaluation, not per seed";
  EXPECT_EQ(ws.stats().block_allocations, warmed.block_allocations);
}

}  // namespace
}  // namespace spotfi
