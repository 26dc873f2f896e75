// The per-AP step suite (DESIGN.md §15): ApProcessor's metered MUSIC
// step must write exactly what the estimator's value API returns; a
// round must be byte-identical at every thread count for every
// fallback/shed entry stage; the stage breakdown must fill the phases
// each rung runs — and the deferred (prepare/execute/complete) round
// lifecycle plus the cross-session batch scheduler must reproduce the
// serial per-session outputs bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/server.hpp"
#include "core/session_manager.hpp"
#include "core/streaming.hpp"
#include "music/steering_cache.hpp"
#include "testbed/deployment.hpp"
#include "testbed/experiment.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();

std::vector<ApCapture> office_captures(std::size_t packets,
                                       unsigned seed = 2024) {
  ExperimentConfig cfg;
  cfg.packets_per_group = packets;
  const ExperimentRunner runner(kLink, office_deployment(), cfg);
  Rng rng(seed);
  return runner.simulate_captures({6.0, 3.5}, rng);
}

ServerConfig office_server_config(std::size_t threads) {
  ServerConfig cfg;
  cfg.num_threads = threads;
  const Deployment dep = office_deployment();
  cfg.localizer.area_min = dep.area_min;
  cfg.localizer.area_max = dep.area_max;
  return cfg;
}

// --- metered stage path == value API, bit for bit ----------------------

TEST(StageEquivalence, ComposedMusicStagesMatchEstimateInto) {
  // ApProcessor's per-packet step composes stage_subspace and
  // stage_spectrum into its slot span under two meters; a group run
  // always arms the sink, and with sanitization off the pooled estimates
  // must be exactly what estimate() returns, packet after packet.
  const auto captures = office_captures(3);
  const JointMusicEstimator est(kLink, JointMusicConfig{});
  ApProcessorConfig cfg;
  cfg.sanitize = false;
  const ApProcessor processor(kLink, captures[0].pose, cfg);
  Rng rng(5);
  const ApOutcome outcome =
      processor.process_robust(captures[0].packets, rng);
  ASSERT_EQ(outcome.stage, ApStage::kPrimary) << outcome.note;
  const std::vector<PathEstimate>& staged = outcome.result.pooled_estimates;
  const StageBreakdown& bd = outcome.stage_breakdown;

  std::size_t n_staged = 0;
  for (const auto& packet : captures[0].packets) {
    const std::vector<PathEstimate> value = est.estimate(packet.csi);
    ASSERT_LE(n_staged + value.size(), staged.size());
    for (std::size_t i = 0; i < value.size(); ++i, ++n_staged) {
      EXPECT_EQ(value[i].aoa_rad, staged[n_staged].aoa_rad) << n_staged;
      EXPECT_EQ(value[i].tof_s, staged[n_staged].tof_s) << n_staged;
      EXPECT_EQ(value[i].power, staged[n_staged].power) << n_staged;
    }
  }
  ASSERT_EQ(n_staged, staged.size());
  EXPECT_GT(bd.seconds[static_cast<std::size_t>(StagePhase::kSubspace)], 0.0);
  EXPECT_GT(bd.seconds[static_cast<std::size_t>(StagePhase::kSpectrum)], 0.0);
}

// --- entry-stage sweep: 1 vs 4 threads, bitwise -----------------------

void expect_rounds_identical(const LocalizationRound& a,
                             const LocalizationRound& b) {
  EXPECT_EQ(a.location.position.x, b.location.position.x);
  EXPECT_EQ(a.location.position.y, b.location.position.y);
  ASSERT_EQ(a.ap_results.size(), b.ap_results.size());
  for (std::size_t i = 0; i < a.ap_results.size(); ++i) {
    EXPECT_EQ(a.ap_results[i].observation.direct_aoa_rad,
              b.ap_results[i].observation.direct_aoa_rad) << i;
    EXPECT_EQ(a.ap_results[i].observation.likelihood,
              b.ap_results[i].observation.likelihood) << i;
    EXPECT_EQ(a.ap_results[i].observation.rssi_dbm,
              b.ap_results[i].observation.rssi_dbm) << i;
    EXPECT_EQ(a.ap_results[i].observation.has_aoa,
              b.ap_results[i].observation.has_aoa) << i;
  }
  EXPECT_EQ(a.ap_stages, b.ap_stages);
  EXPECT_EQ(a.notes, b.notes);
  EXPECT_EQ(a.rejected_aps, b.rejected_aps);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.numerics.summary(), b.numerics.summary());
}

TEST(StageEquivalence, EveryEntryStageIsThreadCountInvariant) {
  unsetenv("SPOTFI_THREADS");
  const auto captures = office_captures(5);

  // The shed ladder = entry-stage substitution: every rung a degraded
  // round can enter at must be bitwise thread-count invariant, exactly
  // like the full-fidelity path.
  for (const ApStage entry :
       {ApStage::kPrimary, ApStage::kRelaxedMusic, ApStage::kEsprit,
        ApStage::kRssiOnly}) {
    std::optional<LocalizationRound> serial;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ServerConfig cfg = office_server_config(threads);
      cfg.ap.fallback.entry_stage = entry;
      const SpotFiServer server(kLink, cfg);
      Rng rng(99);
      auto result = server.try_localize(captures, rng);
      ASSERT_TRUE(result.has_value())
          << to_string(entry) << ": " << result.error().reason;
      if (threads == 1) {
        serial = std::move(result.value());
      } else {
        expect_rounds_identical(*serial, result.value());
      }
    }
  }
}

// --- per-stage telemetry ----------------------------------------------

TEST(StageTelemetry, RobustRoundCarriesAStageBreakdown) {
  const auto captures = office_captures(4);
  const SpotFiServer server(kLink, office_server_config(1));
  Rng rng(7);
  auto result = server.try_localize(captures, rng);
  ASSERT_TRUE(result.has_value()) << result.error().reason;
  const LocalizationRound& round = result.value();

  const StageBreakdown& bd = round.stage_breakdown;
  EXPECT_TRUE(bd.any());
  // The MUSIC path must attribute work to every phase it runs:
  // sanitization, the eigendecomposition and the grid sweep (the ROADMAP
  // items-2/3 cost split this telemetry exists to measure), clustering,
  // and fusion.
  EXPECT_GT(bd.seconds[static_cast<std::size_t>(StagePhase::kSanitize)], 0.0);
  EXPECT_GT(bd.seconds[static_cast<std::size_t>(StagePhase::kSubspace)], 0.0);
  EXPECT_GT(bd.seconds[static_cast<std::size_t>(StagePhase::kSpectrum)], 0.0);
  EXPECT_GT(bd.seconds[static_cast<std::size_t>(StagePhase::kCluster)], 0.0);
  EXPECT_GT(bd.seconds[static_cast<std::size_t>(StagePhase::kLocalize)], 0.0);
  for (const double s : bd.seconds) EXPECT_GE(s, 0.0);
  // No single phase can out-peak the whole round's arena footprint.
  for (const std::size_t peak : bd.workspace_peak_bytes) {
    EXPECT_LE(peak, round.workspace_peak_bytes);
  }

  // One result per AP. ApResult carries no per-AP breakdown, so how the
  // APs' breakdowns fold into the round's is checked on the fold itself
  // (StageBreakdown.MergeAddsTimesAndMaxesPeaks).
  EXPECT_EQ(round.ap_results.size(), captures.size());
}

TEST(StageBreakdown, MergeAddsTimesAndMaxesPeaks) {
  StageBreakdown b;
  b.seconds = {0.1, 1.3, 2.7, 0.0, 0.3};
  b.workspace_peak_bytes = {10, 300, 40, 0, 7};
  StageBreakdown c;
  c.seconds = {0.2, 0.0, 1.1, 0.9, 0.7};
  c.workspace_peak_bytes = {20, 100, 40, 5, 0};

  // Merging an empty breakdown is the identity, on either side.
  StageBreakdown b_then_empty = b;
  b_then_empty.merge(StageBreakdown{});
  StageBreakdown empty_then_b;
  empty_then_b.merge(b);
  for (const StageBreakdown* x : {&b_then_empty, &empty_then_b}) {
    EXPECT_EQ(x->seconds, b.seconds);
    EXPECT_EQ(x->workspace_peak_bytes, b.workspace_peak_bytes);
  }

  // Seconds add in fold order; each phase's peak is the larger one.
  StageBreakdown folded;
  EXPECT_FALSE(folded.any());
  EXPECT_EQ(folded.total_seconds(), 0.0);
  folded.merge(b);
  folded.merge(c);
  double total = 0.0;
  for (std::size_t i = 0; i < kStagePhaseCount; ++i) {
    EXPECT_EQ(folded.seconds[i], (0.0 + b.seconds[i]) + c.seconds[i]) << i;
    EXPECT_EQ(folded.workspace_peak_bytes[i],
              std::max(b.workspace_peak_bytes[i], c.workspace_peak_bytes[i]))
        << i;
    total += folded.seconds[i];
  }
  EXPECT_TRUE(folded.any());
  EXPECT_EQ(folded.total_seconds(), total);

  // any() sees a time or a peak alone.
  StageBreakdown time_only;
  time_only.seconds[static_cast<std::size_t>(StagePhase::kCluster)] = 1e-9;
  EXPECT_TRUE(time_only.any());
  StageBreakdown peak_only;
  peak_only.workspace_peak_bytes[static_cast<std::size_t>(
      StagePhase::kLocalize)] = 1;
  EXPECT_TRUE(peak_only.any());
  EXPECT_EQ(peak_only.total_seconds(), 0.0);
}

TEST(StageTelemetry, EspritRoundIsMeteredWholeAsSubspace) {
  // ESPRIT has no grid sweep: it is metered whole under kSubspace and
  // leaves kSpectrum empty (perfbench's tenants_esprit reads
  // music.spectrum_ms = 0 from this).
  const auto captures = office_captures(4);
  ServerConfig cfg = office_server_config(1);
  cfg.ap.fallback.entry_stage = ApStage::kEsprit;
  const SpotFiServer server(kLink, cfg);
  Rng rng(7);
  auto result = server.try_localize(captures, rng);
  ASSERT_TRUE(result.has_value()) << result.error().reason;
  for (const ApStage stage : result.value().ap_stages) {
    EXPECT_EQ(stage, ApStage::kEsprit);
  }

  const StageBreakdown& bd = result.value().stage_breakdown;
  EXPECT_GT(bd.seconds[static_cast<std::size_t>(StagePhase::kSubspace)], 0.0);
  EXPECT_EQ(bd.seconds[static_cast<std::size_t>(StagePhase::kSpectrum)], 0.0);
  EXPECT_EQ(
      bd.workspace_peak_bytes[static_cast<std::size_t>(StagePhase::kSpectrum)],
      0u);
}

TEST(StageTelemetry, LocalizePeakIsOneSolveNotTheSum) {
  // The primary solve and every leave-one-out re-solve each meter their
  // own frame, on whichever lane ran them, so the kLocalize peak is the
  // largest single solve's footprint: the re-solves (one AP fewer each)
  // must not raise it above what the primary solve alone reports.
  const auto captures = office_captures(4);
  constexpr auto kLocalize = static_cast<std::size_t>(StagePhase::kLocalize);
  std::size_t peak[2] = {0, 0};
  for (const bool loo : {false, true}) {
    ServerConfig cfg = office_server_config(1);
    cfg.fusion.loo_rejection = loo;
    const SpotFiServer server(kLink, cfg);
    Rng rng(7);
    auto result = server.try_localize(captures, rng);
    ASSERT_TRUE(result.has_value()) << result.error().reason;
    ASSERT_TRUE(result.value().rejected_aps.empty());
    peak[loo ? 1 : 0] =
        result.value().stage_breakdown.workspace_peak_bytes[kLocalize];
  }
  EXPECT_GT(peak[0], 0u);
  EXPECT_EQ(peak[1], peak[0]);
}

TEST(StageTelemetry, MeteringIsOptInAndOffByDefaultOnTheStrictPath) {
  // A group run always meters into ApOutcome::stage_breakdown; only
  // estimate_packet and bare kernel calls pass no breakdown sink, and
  // their zero-clock-read contract is pinned by the alloc/perf suites.
  const auto captures = office_captures(2);
  ApProcessorConfig cfg;
  const ApProcessor processor(kLink, captures[0].pose, cfg);
  Rng rng(5);
  const ApOutcome outcome =
      processor.process_robust(captures[0].packets, rng);
  ASSERT_EQ(outcome.stage, ApStage::kPrimary) << outcome.note;
  EXPECT_TRUE(outcome.result.observation.has_aoa);
  EXPECT_TRUE(outcome.stage_breakdown.any());
}

// --- steering-table interning across estimator constructions -----------

TEST(SteeringCache, IdenticalEstimatorsShareOneTable) {
  SteeringTableCache::clear();
  const JointMusicConfig cfg;
  const JointMusicEstimator a(kLink, cfg);
  const SteeringCacheStats after_first = SteeringTableCache::stats();
  EXPECT_GE(after_first.misses, 2u);  // one AoA axis, one ToF axis

  const JointMusicEstimator b(kLink, cfg);
  const SteeringCacheStats after_second = SteeringTableCache::stats();
  // The second estimator recomputed nothing: both axes were interned.
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_GE(after_second.hits, after_first.hits + 2);
  // Shared, not equal: the very same table memory.
  EXPECT_EQ(a.aoa_grid().data(), b.aoa_grid().data());
  EXPECT_EQ(a.tof_grid().data(), b.tof_grid().data());

  // A different grid is a different key — no false sharing.
  JointMusicConfig coarse = cfg;
  coarse.aoa_step_rad *= 2.0;
  const JointMusicEstimator c(kLink, coarse);
  EXPECT_NE(a.aoa_grid().data(), c.aoa_grid().data());
  EXPECT_GT(SteeringTableCache::stats().misses, after_second.misses);
}

TEST(SteeringCache, RacingMissesCountOneInsert) {
  // Eight lanes miss one fresh key at the same moment: each may build the
  // table, but only the insert that lands counts as a miss, so `misses`
  // equals the number of tables inserted.
  SteeringTableCache::clear();
  constexpr std::size_t kThreads = 8;
  std::barrier start(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::shared_ptr<const SteeringAxisTable>> tables(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      tables[t] = SteeringTableCache::get(SteeringTableCache::Axis::kAoa,
                                          -1.5, 1.5, 1e-4, 4, kLink);
    });
  }
  for (auto& thread : threads) thread.join();

  const SteeringCacheStats stats = SteeringTableCache::stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.entries, 1u);
  for (const auto& table : tables) EXPECT_EQ(table, tables.front());
}

// --- deferred round lifecycle ==  push(), bit for bit ------------------

TEST(DeferredRounds, PrepareExecuteCompleteMatchesPush) {
  const auto captures = office_captures(3, 11);
  StreamingConfig cfg;
  cfg.group_size = 3;
  cfg.server.num_threads = 1;
  const Deployment dep = office_deployment();
  cfg.server.localizer.area_min = dep.area_min;
  cfg.server.localizer.area_max = dep.area_max;

  std::vector<LocationFix> direct;
  std::vector<LocationFix> deferred;
  for (const bool use_deferred : {false, true}) {
    StreamingLocalizer localizer(kLink, cfg);
    for (const auto& capture : captures) {
      (void)localizer.add_ap(capture.pose);
    }
    Rng rng(77);
    for (std::size_t p = 0; p < 3; ++p) {
      for (std::size_t a = 0; a < captures.size(); ++a) {
        if (use_deferred) {
          auto pending =
              localizer.push_deferred(a, captures[a].packets[p], rng);
          if (!pending) continue;
          localizer.execute_round(*pending);
          if (auto fix = localizer.complete_round(std::move(*pending))) {
            deferred.push_back(std::move(*fix));
          }
        } else if (auto fix =
                       localizer.push(a, captures[a].packets[p], rng)) {
          direct.push_back(std::move(*fix));
        }
      }
    }
  }
  ASSERT_EQ(direct.size(), 1u);
  ASSERT_EQ(deferred.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].raw.x, deferred[i].raw.x);
    EXPECT_EQ(direct[i].raw.y, deferred[i].raw.y);
    EXPECT_EQ(direct[i].time_s, deferred[i].time_s);
    EXPECT_EQ(direct[i].aps_used, deferred[i].aps_used);
    EXPECT_EQ(direct[i].reasons, deferred[i].reasons);
    EXPECT_EQ(direct[i].degraded, deferred[i].degraded);
  }
}

// --- cross-session batch scheduling ------------------------------------

SessionConfig batch_session(const std::vector<ApCapture>& captures,
                            std::size_t group_size, std::uint64_t seed) {
  SessionConfig cfg;
  cfg.streaming.group_size = group_size;
  const Deployment dep = office_deployment();
  cfg.streaming.server.localizer.area_min = dep.area_min;
  cfg.streaming.server.localizer.area_max = dep.area_max;
  for (const auto& capture : captures) cfg.aps.push_back(capture.pose);
  cfg.seed = seed;
  return cfg;
}

/// The full post-round session state that identical fixes must leave
/// behind: the Kalman tracker folds every raw fix coordinate through
/// its update, so bitwise-equal tracker state + rng state + counters is
/// a byte-identity witness for the fixes themselves (pump_all() reports
/// only a count).
void expect_session_states_identical(const SessionDurableState& a,
                                     const SessionDurableState& b) {
  // Same forks consumed, in the same order.
  EXPECT_EQ(a.rng.s, b.rng.s);
  EXPECT_EQ(a.rng.have_cached_normal, b.rng.have_cached_normal);
  EXPECT_EQ(a.rng.cached_normal, b.rng.cached_normal);
  EXPECT_EQ(a.emitted_fixes, b.emitted_fixes);
  EXPECT_EQ(a.applied_packets, b.applied_packets);
  EXPECT_EQ(a.stats.fixes, b.stats.fixes);
  EXPECT_EQ(a.stats.rounds_full, b.stats.rounds_full);
  EXPECT_EQ(a.stats.rounds_degraded, b.stats.rounds_degraded);
  EXPECT_EQ(a.stats.failed_rounds, b.stats.failed_rounds);
  EXPECT_EQ(a.streaming.fix_count, b.streaming.fix_count);
  EXPECT_EQ(a.streaming.last_fix_time_s, b.streaming.last_fix_time_s);
  EXPECT_EQ(a.streaming.tracker.initialized, b.streaming.tracker.initialized);
  EXPECT_EQ(a.streaming.tracker.last_t, b.streaming.tracker.last_t);
  for (std::size_t i = 0; i < a.streaming.tracker.state.size(); ++i) {
    EXPECT_EQ(a.streaming.tracker.state[i], b.streaming.tracker.state[i]) << i;
  }
  for (std::size_t i = 0; i < a.streaming.tracker.cov.size(); ++i) {
    EXPECT_EQ(a.streaming.tracker.cov[i], b.streaming.tracker.cov[i]) << i;
  }
}

TEST(CrossSessionBatching, TwoSessionsCoalesceIntoOneBatchUnchanged) {
  unsetenv("SPOTFI_THREADS");
  constexpr std::size_t kGroup = 3;
  const auto captures = office_captures(kGroup, 11);
  const auto other = office_captures(kGroup, 12);

  // Reference: each tenant pumped individually on a serial manager,
  // capturing the fixes themselves.
  std::vector<LocationFix> ref1;
  std::vector<LocationFix> ref2;
  SessionDurableState ref_state1;
  SessionDurableState ref_state2;
  {
    SessionManagerConfig mgr_cfg;
    mgr_cfg.num_threads = 1;
    SessionManager manager(kLink, mgr_cfg);
    const SessionId s1 =
        manager.open_session(batch_session(captures, kGroup, 77));
    const SessionId s2 =
        manager.open_session(batch_session(other, kGroup, 78));
    for (std::size_t p = 0; p < kGroup; ++p) {
      for (std::size_t a = 0; a < captures.size(); ++a) {
        ASSERT_TRUE(manager.offer(s1, a, captures[a].packets[p]).admitted());
        ASSERT_TRUE(manager.offer(s2, a, other[a].packets[p]).admitted());
      }
    }
    ref1 = manager.pump(s1);
    ref2 = manager.pump(s2);
    EXPECT_EQ(manager.batched_rounds(), 0u);
    ref_state1 = manager.export_session_state(s1);
    ref_state2 = manager.export_session_state(s2);
  }
  ASSERT_EQ(ref1.size(), 1u);
  ASSERT_EQ(ref2.size(), 1u);

  // Candidate: identical ingest on a pooled manager, drained by ONE
  // pump_all() — both tenants' prepared rounds coalesce into one shared
  // batch and execute concurrently on the pool.
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 4;
  SessionManager manager(kLink, mgr_cfg);
  const SessionId s1 =
      manager.open_session(batch_session(captures, kGroup, 77));
  const SessionId s2 =
      manager.open_session(batch_session(other, kGroup, 78));
  for (std::size_t p = 0; p < kGroup; ++p) {
    for (std::size_t a = 0; a < captures.size(); ++a) {
      ASSERT_TRUE(manager.offer(s1, a, captures[a].packets[p]).admitted());
      ASSERT_TRUE(manager.offer(s2, a, other[a].packets[p]).admitted());
    }
  }
  EXPECT_EQ(manager.pump_all(), 2u);
  // The batching witness: both rounds executed inside one shared batch.
  EXPECT_GE(manager.batched_rounds(), 2u);

  // Per-session outputs unchanged, down to the bit: the tracker state
  // is a pure function of the raw fix coordinates it was fed.
  SessionDurableState got1 = manager.export_session_state(s1);
  SessionDurableState got2 = manager.export_session_state(s2);
  // The batched export reflects the serial ids of its own manager.
  got1.id = ref_state1.id;
  got2.id = ref_state2.id;
  expect_session_states_identical(ref_state1, got1);
  expect_session_states_identical(ref_state2, got2);
  EXPECT_EQ(got1.streaming.last_fix_time_s, ref1[0].time_s);
  EXPECT_EQ(got2.streaming.last_fix_time_s, ref2[0].time_s);
}

}  // namespace
}  // namespace spotfi
