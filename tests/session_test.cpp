// Tests for the multi-tenant session layer: admission verdicts, bounded
// ingest queues, the load-shedding fidelity ladder, deadline planning,
// telemetry accounting, and the byte-identical-acceptance contract
// against the single-tenant streaming path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/session_manager.hpp"
#include "testbed/deployment.hpp"
#include "testbed/experiment.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();

/// Simulated feed: one office target, packets interleaved across APs.
struct Feed {
  ExperimentRunner runner;
  std::vector<ApCapture> captures;

  explicit Feed(std::size_t packets, Vec2 target = {6.0, 3.5})
      : runner(kLink, office_deployment(), make_config(packets)) {
    Rng rng(11);
    captures = runner.simulate_captures(target, rng);
  }
  static ExperimentConfig make_config(std::size_t packets) {
    ExperimentConfig config;
    config.packets_per_group = packets;
    return config;
  }
  [[nodiscard]] std::vector<ArrayPose> poses() const {
    std::vector<ArrayPose> out;
    for (const auto& capture : captures) out.push_back(capture.pose);
    return out;
  }
};

SessionConfig base_session(const Feed& feed, std::size_t group_size) {
  SessionConfig cfg;
  cfg.streaming.group_size = group_size;
  cfg.streaming.server.localizer.area_min = feed.runner.deployment().area_min;
  cfg.streaming.server.localizer.area_max = feed.runner.deployment().area_max;
  cfg.aps = feed.poses();
  cfg.seed = 77;
  return cfg;
}

// --- lifecycle and contracts ---

TEST(SessionManager, OpenRequiresTwoAps) {
  SessionManager manager(kLink);
  SessionConfig cfg;
  cfg.aps.resize(1);
  EXPECT_THROW((void)manager.open_session(cfg), ContractViolation);
  EXPECT_EQ(manager.session_count(), 0u);
}

TEST(SessionManager, UnknownSessionIdThrowsEverywhere) {
  SessionManager manager(kLink);
  Rng rng(1);
  EXPECT_THROW((void)manager.offer(42, 0, CsiPacket{}), ContractViolation);
  EXPECT_THROW((void)manager.pump(42), ContractViolation);
  EXPECT_THROW((void)manager.poll(42, 0.0), ContractViolation);
  EXPECT_THROW((void)manager.session_stats(42), ContractViolation);
  EXPECT_THROW((void)manager.localizer(42), ContractViolation);
  EXPECT_THROW(manager.close_session(42), ContractViolation);
}

TEST(SessionManager, IdsAreNeverReused) {
  Feed feed(2);
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 1;
  SessionManager manager(kLink, mgr_cfg);
  const SessionId a = manager.open_session(base_session(feed, 4));
  manager.close_session(a);
  const SessionId b = manager.open_session(base_session(feed, 4));
  EXPECT_NE(a, b);
  EXPECT_EQ(manager.session_count(), 1u);
}

// --- admission control ---

TEST(SessionAdmission, VerdictsGradeOccupancyAndFullQueueSheds) {
  Feed feed(2);
  SessionConfig cfg = base_session(feed, 1000);  // rounds never fire
  cfg.overload.queue_capacity = 8;
  cfg.overload.degrade_coarse_at = 0.50;   // depth >= 4
  cfg.overload.degrade_esprit_at = 0.75;   // depth >= 6
  cfg.overload.degrade_rssi_at = 0.90;     // depth >= 8 (ceil(7.2))
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 1;
  SessionManager manager(kLink, mgr_cfg);
  const SessionId id = manager.open_session(cfg);

  // Fill the queue without pumping; the entitlement must degrade
  // monotonically with depth and the 9th packet must shed.
  std::vector<AdmissionVerdict> verdicts;
  for (int i = 0; i < 10; ++i) {
    verdicts.push_back(
        manager.offer(id, 0, feed.captures[0].packets[0]));
  }
  // Depth observed before each push: 0..9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(verdicts[i].kind, AdmissionVerdict::Kind::kAccepted) << i;
    EXPECT_EQ(verdicts[i].level, ApStage::kPrimary) << i;
  }
  EXPECT_EQ(verdicts[4].kind, AdmissionVerdict::Kind::kDegraded);
  EXPECT_EQ(verdicts[4].level, ApStage::kRelaxedMusic);
  EXPECT_EQ(verdicts[6].level, ApStage::kEsprit);
  EXPECT_EQ(verdicts[8].kind, AdmissionVerdict::Kind::kShed);
  EXPECT_FALSE(verdicts[8].admitted());
  EXPECT_EQ(verdicts[9].kind, AdmissionVerdict::Kind::kShed);

  // Monotone degradation: entitlement never upgrades as depth rises.
  for (std::size_t i = 1; i < verdicts.size(); ++i) {
    EXPECT_GE(verdicts[i].level, verdicts[i - 1].level) << i;
  }

  const SessionStats stats = manager.session_stats(id);
  EXPECT_EQ(stats.offered, 10u);
  EXPECT_EQ(stats.accepted, 8u);
  EXPECT_EQ(stats.shed_packets, 2u);
  EXPECT_EQ(stats.offered, stats.accepted + stats.shed_packets);
  EXPECT_EQ(stats.degraded_admissions, 4u);  // depths 4..7
  EXPECT_EQ(stats.queue_high_water, 8u);
  EXPECT_LE(stats.queue_high_water, stats.queue_capacity);
}

// --- accepted rounds are byte-identical to the single-tenant path ---

TEST(SessionDeterminism, AcceptedFixesMatchStandaloneAtAnyThreadCount) {
  unsetenv("SPOTFI_THREADS");
  constexpr std::size_t kGroup = 4;
  Feed feed(kGroup);

  // Reference: a standalone single-tenant StreamingLocalizer, serial.
  std::vector<Vec2> reference;
  {
    StreamingConfig cfg;
    cfg.group_size = kGroup;
    cfg.server.num_threads = 1;
    cfg.server.localizer.area_min = feed.runner.deployment().area_min;
    cfg.server.localizer.area_max = feed.runner.deployment().area_max;
    StreamingLocalizer standalone(kLink, cfg);
    for (const auto& capture : feed.captures) standalone.add_ap(capture.pose);
    Rng rng(77);  // == SessionConfig::seed below
    for (std::size_t p = 0; p < kGroup; ++p) {
      for (std::size_t a = 0; a < feed.captures.size(); ++a) {
        if (auto fix = standalone.push(a, feed.captures[a].packets[p], rng)) {
          reference.push_back(fix->raw);
        }
      }
    }
    ASSERT_EQ(reference.size(), 1u);
  }

  // The same stream through a session, serial and parallel. Pumping
  // after every offer keeps the queue shallow, so every round is
  // admitted at full fidelity — the accepted path.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SessionManagerConfig mgr_cfg;
    mgr_cfg.num_threads = threads;
    SessionManager manager(kLink, mgr_cfg);
    const SessionId id = manager.open_session(base_session(feed, kGroup));
    std::vector<LocationFix> fixes;
    for (std::size_t p = 0; p < kGroup; ++p) {
      for (std::size_t a = 0; a < feed.captures.size(); ++a) {
        const auto verdict =
            manager.offer(id, a, feed.captures[a].packets[p]);
        ASSERT_EQ(verdict.kind, AdmissionVerdict::Kind::kAccepted);
        for (auto& fix : manager.pump(id)) fixes.push_back(std::move(fix));
      }
    }
    ASSERT_EQ(fixes.size(), reference.size()) << threads << " threads";
    for (std::size_t i = 0; i < fixes.size(); ++i) {
      // Bitwise equality: the multi-tenant accepted path must not
      // reorder a single floating-point operation.
      EXPECT_EQ(fixes[i].raw.x, reference[i].x) << threads << " threads";
      EXPECT_EQ(fixes[i].raw.y, reference[i].y) << threads << " threads";
      EXPECT_EQ(fixes[i].round.fidelity, ApStage::kPrimary);
    }
    const SessionStats stats = manager.session_stats(id);
    EXPECT_EQ(stats.rounds_full, 1u);
    EXPECT_EQ(stats.rounds_degraded, 0u);
    EXPECT_EQ(stats.rounds_shed, 0u);
    EXPECT_EQ(stats.fixes, 1u);
  }
}

TEST(SessionDeterminism, BackloggedPumpRunsItsRoundsAsOneBatch) {
  // pump() is pump_all() restricted to one session: a backlog's rounds
  // are all prepared first, then execute as one batch across the pool —
  // without changing a bit of any fix.
  unsetenv("SPOTFI_THREADS");
  constexpr std::size_t kGroup = 3;
  Feed feed(3 * kGroup);
  SessionConfig cfg = base_session(feed, kGroup);
  cfg.overload.queue_capacity = 256;  // the backlog stays below every rung

  std::vector<std::vector<LocationFix>> runs;
  std::vector<std::uint64_t> batched;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SessionManagerConfig mgr_cfg;
    mgr_cfg.num_threads = threads;
    SessionManager manager(kLink, mgr_cfg);
    const SessionId id = manager.open_session(cfg);
    for (std::size_t p = 0; p < 3 * kGroup; ++p) {
      for (std::size_t a = 0; a < feed.captures.size(); ++a) {
        ASSERT_TRUE(
            manager.offer(id, a, feed.captures[a].packets[p]).admitted());
      }
    }
    runs.push_back(manager.pump(id));
    batched.push_back(manager.batched_rounds());
  }
  ASSERT_EQ(runs[0].size(), 3u);
  ASSERT_EQ(runs[1].size(), runs[0].size());
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    const LocationFix& serial = runs[0][i];
    const LocationFix& pooled = runs[1][i];
    EXPECT_EQ(pooled.raw.x, serial.raw.x) << i;
    EXPECT_EQ(pooled.raw.y, serial.raw.y) << i;
    EXPECT_EQ(pooled.tracked.x, serial.tracked.x) << i;
    EXPECT_EQ(pooled.tracked.y, serial.tracked.y) << i;
    EXPECT_EQ(pooled.time_s, serial.time_s) << i;
    EXPECT_EQ(pooled.durable_round_index, serial.durable_round_index) << i;
    EXPECT_EQ(pooled.round.fidelity, ApStage::kPrimary) << i;
  }
  EXPECT_EQ(batched[0], 0u);  // serial manager: no pool to batch on
  EXPECT_EQ(batched[1], 3u);
}

// --- backlog degrades fidelity, and the books balance ---

TEST(SessionOverload, BacklogDegradesRoundsAndCountersAccount) {
  constexpr std::size_t kGroup = 3;
  Feed feed(3 * kGroup);
  SessionConfig cfg = base_session(feed, kGroup);
  // Any backlog at all entitles only coarse fidelity and below.
  cfg.overload.queue_capacity = 256;
  cfg.overload.degrade_coarse_at = 0.0;
  cfg.overload.degrade_esprit_at = 1.0;
  cfg.overload.degrade_rssi_at = 1.0;
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 1;
  SessionManager manager(kLink, mgr_cfg);
  const SessionId id = manager.open_session(cfg);

  // Offer three full rounds' worth of packets before pumping once: at
  // every round-fire the queue still holds a backlog, so every round
  // must run degraded (coarse), and the fixes must say so.
  for (std::size_t p = 0; p < 3 * kGroup; ++p) {
    for (std::size_t a = 0; a < feed.captures.size(); ++a) {
      const auto verdict = manager.offer(id, a, feed.captures[a].packets[p]);
      ASSERT_TRUE(verdict.admitted());
    }
  }
  std::vector<LocationFix> fixes;
  for (auto& fix : manager.pump(id)) fixes.push_back(std::move(fix));

  const SessionStats stats = manager.session_stats(id);
  // The first two rounds fire with a backlog still queued behind them —
  // degraded. The third fires on the very last pop, backlog drained —
  // full fidelity again (the ladder recovers when pressure does).
  EXPECT_EQ(stats.rounds_degraded, 2u);
  EXPECT_EQ(stats.rounds_full, 1u);
  EXPECT_EQ(stats.rounds_shed, 0u);
  EXPECT_EQ(stats.failed_rounds, 0u);
  // Every planned round is exactly one of full/degraded/shed, and the
  // degraded counter accounts for exactly the non-full fixes.
  EXPECT_EQ(stats.fixes + stats.failed_rounds,
            stats.rounds_full + stats.rounds_degraded);
  EXPECT_EQ(stats.fixes, fixes.size());
  std::size_t non_full = 0;
  for (const auto& fix : fixes) {
    if (fix.round.fidelity != ApStage::kPrimary) {
      ++non_full;
      EXPECT_TRUE(fix.degraded);
      EXPECT_EQ(fix.round.fidelity, ApStage::kRelaxedMusic);
    }
  }
  EXPECT_EQ(non_full, stats.rounds_degraded);
  EXPECT_LE(stats.queue_high_water, stats.queue_capacity);
}

TEST(SessionOverload, BacklogNeverRunsACostlierEstimatorThanConfigured) {
  // A planned rung is a floor on each AP's configured entry stage, never
  // an override: relaxed MUSIC costs more than ESPRIT and far more than
  // RSSI-only, so a backlog must not make either tenant run it.
  constexpr std::size_t kGroup = 3;
  Feed feed(3 * kGroup);
  SessionConfig esprit = base_session(feed, kGroup);
  esprit.streaming.server.ap.front_end = FrontEnd::kEsprit;
  SessionConfig rssi_only = base_session(feed, kGroup);
  rssi_only.streaming.server.ap.fallback.entry_stage = ApStage::kRssiOnly;

  for (SessionConfig cfg : {esprit, rssi_only}) {
    const bool rssi_entry =
        cfg.streaming.server.ap.fallback.entry_stage == ApStage::kRssiOnly;
    SCOPED_TRACE(rssi_entry ? "rssi-only entry" : "esprit front end");
    // Any backlog at all plans the round at the relaxed-MUSIC rung.
    cfg.overload.queue_capacity = 256;
    cfg.overload.degrade_coarse_at = 0.0;
    cfg.overload.degrade_esprit_at = 1.0;
    cfg.overload.degrade_rssi_at = 1.0;
    SessionManagerConfig mgr_cfg;
    mgr_cfg.num_threads = 1;
    SessionManager manager(kLink, mgr_cfg);
    const SessionId id = manager.open_session(cfg);

    for (std::size_t p = 0; p < 3 * kGroup; ++p) {
      for (std::size_t a = 0; a < feed.captures.size(); ++a) {
        ASSERT_TRUE(
            manager.offer(id, a, feed.captures[a].packets[p]).admitted());
      }
    }
    const std::vector<LocationFix> fixes = manager.pump(id);
    ASSERT_EQ(fixes.size(), 3u);
    std::size_t planned_relaxed = 0;
    for (const auto& fix : fixes) {
      if (fix.round.fidelity == ApStage::kRelaxedMusic) ++planned_relaxed;
      for (const ApStage stage : fix.round.ap_stages) {
        EXPECT_NE(stage, ApStage::kRelaxedMusic);
        if (rssi_entry) {
          EXPECT_EQ(stage, ApStage::kRssiOnly);
        }
      }
    }
    EXPECT_EQ(planned_relaxed, 2u);
  }
}

// --- deadline planning with a fake clock ---

TEST(SessionDeadline, UnaffordableFullFidelityDegradesUpFront) {
  constexpr std::size_t kGroup = 4;
  Feed feed(kGroup);
  SessionConfig cfg = base_session(feed, kGroup);
  cfg.overload.round_deadline_s = 0.06;
  // Deterministic cost model: full and coarse can't meet the deadline,
  // ESPRIT can. (With a FakeClock nothing is ever measured, so the
  // seeds are the whole model until a round observes dt >= 0.)
  cfg.overload.seed_cost_s = {0.2, 0.1, 0.05, 0.01};
  FakeClock clock(0.0);
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 1;
  mgr_cfg.clock = &clock;
  SessionManager manager(kLink, mgr_cfg);
  const SessionId id = manager.open_session(cfg);

  std::vector<LocationFix> fixes;
  for (std::size_t p = 0; p < kGroup; ++p) {
    for (std::size_t a = 0; a < feed.captures.size(); ++a) {
      (void)manager.offer(id, a, feed.captures[a].packets[p]);
      for (auto& fix : manager.pump(id)) fixes.push_back(std::move(fix));
    }
  }
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_EQ(fixes.front().round.fidelity, ApStage::kEsprit);
  const SessionStats stats = manager.session_stats(id);
  EXPECT_EQ(stats.deadline_limited_rounds, 1u);
  EXPECT_EQ(stats.rounds_degraded, 1u);
  EXPECT_EQ(stats.rounds_shed, 0u);
  // The FakeClock never advanced, so the measured duration (0) met the
  // deadline: no miss.
  EXPECT_EQ(stats.deadline_misses, 0u);
}

TEST(SessionDeadline, UnmeetableDeadlineShedsTheRoundUpFront) {
  constexpr std::size_t kGroup = 4;
  Feed feed(kGroup);
  SessionConfig cfg = base_session(feed, kGroup);
  cfg.overload.round_deadline_s = 0.005;
  cfg.overload.seed_cost_s = {0.2, 0.1, 0.05, 0.01};  // even RSSI: 10 ms
  FakeClock clock(0.0);
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 1;
  mgr_cfg.clock = &clock;
  SessionManager manager(kLink, mgr_cfg);
  const SessionId id = manager.open_session(cfg);

  std::size_t fixes = 0;
  for (std::size_t p = 0; p < kGroup; ++p) {
    for (std::size_t a = 0; a < feed.captures.size(); ++a) {
      (void)manager.offer(id, a, feed.captures[a].packets[p]);
      fixes += manager.pump(id).size();
    }
  }
  // The round was rejected up front — consumed, never run late.
  EXPECT_EQ(fixes, 0u);
  const SessionStats stats = manager.session_stats(id);
  EXPECT_EQ(stats.rounds_shed, 1u);
  EXPECT_EQ(stats.deadline_limited_rounds, 1u);
  EXPECT_EQ(stats.rounds_full, 0u);
  EXPECT_EQ(stats.rounds_degraded, 0u);
  // The backlog was still drained.
  const auto& localizer = manager.localizer(id);
  for (std::size_t a = 0; a < localizer.ap_count(); ++a) {
    EXPECT_EQ(localizer.buffered(a), 0u);
  }
}

TEST(SessionDeadline, MeasuredOverrunCountsAsMissAndRetrainsTheModel) {
  constexpr std::size_t kGroup = 4;
  Feed feed(kGroup);
  SessionConfig cfg = base_session(feed, kGroup);
  cfg.overload.round_deadline_s = 0.5;
  cfg.overload.seed_cost_s = {0.1, 0.05, 0.02, 0.01};  // all look affordable
  // Auto-advance: every clock sample steps time by 1 s, so each round
  // "measures" exactly one step between its start and end stamps —
  // double the budget, deterministically.
  FakeClock clock(0.0);
  clock.set_auto_advance(1.0);
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 1;
  mgr_cfg.clock = &clock;
  SessionManager manager(kLink, mgr_cfg);
  const SessionId id = manager.open_session(cfg);

  auto run_round = [&] {
    std::vector<LocationFix> fixes;
    for (std::size_t p = 0; p < kGroup; ++p) {
      for (std::size_t a = 0; a < feed.captures.size(); ++a) {
        (void)manager.offer(id, a, feed.captures[a].packets[p]);
        for (auto& fix : manager.pump(id)) fixes.push_back(std::move(fix));
      }
    }
    return fixes;
  };

  // Round 1: the seeds said full fidelity fits, so the plan approves it
  // — but the measured duration (1 s) blows the 0.5 s budget. That is a
  // deadline miss, recorded, and the cost model now knows better.
  auto fixes = run_round();
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_EQ(fixes.front().round.fidelity, ApStage::kPrimary);
  SessionStats stats = manager.session_stats(id);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.deadline_limited_rounds, 0u);

  // Round 2: full fidelity now estimates ~1 s > 0.5 s, so the planner
  // degrades up front instead of running late again.
  fixes = run_round();
  ASSERT_EQ(fixes.size(), 1u);
  EXPECT_NE(fixes.front().round.fidelity, ApStage::kPrimary);
  stats = manager.session_stats(id);
  EXPECT_EQ(stats.deadline_limited_rounds, 1u);
  EXPECT_EQ(stats.rounds_degraded, 1u);
}

// --- the round partition holds for every entry point ---

TEST(SessionStatsPartition, PollFiredRoundIsCountedLikeAPumpedOne) {
  // A deadline round fired by poll() must land in the same counters as
  // one fired by pump(): planned (full/degraded/shed), deadline-limited,
  // and — when it runs but yields no fix — failed.
  constexpr std::size_t kGroup = 3;
  Feed feed(kGroup);
  SessionConfig cfg = base_session(feed, kGroup);
  cfg.streaming.screen_packets = false;  // let the corrupt packets buffer
  cfg.overload.round_deadline_s = 0.5;
  // Full fidelity cannot meet the budget, coarse can: the deadline
  // planner degrades the round up front.
  cfg.overload.seed_cost_s = {1.0, 0.2, 0.2, 0.01};
  FakeClock clock(0.0);
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 1;
  mgr_cfg.clock = &clock;
  SessionManager manager(kLink, mgr_cfg);
  const SessionId id = manager.open_session(cfg);

  // Only APs 0 and 1 deliver, and every packet is unusable: NaN CSI and
  // NaN RSSI, so no rung of the fallback chain can produce an
  // observation and the round fails.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  double last_t = 0.0;
  for (std::size_t p = 0; p < kGroup; ++p) {
    for (std::size_t a = 0; a < 2; ++a) {
      CsiPacket packet = feed.captures[a].packets[p];
      packet.csi =
          CMatrix(packet.csi.rows(), packet.csi.cols(), cplx(nan, nan));
      packet.rssi_dbm = nan;
      last_t = std::max(last_t, packet.timestamp_s);
      ASSERT_TRUE(manager.offer(id, a, std::move(packet)).admitted());
      EXPECT_TRUE(manager.pump(id).empty());
    }
  }
  SessionStats stats = manager.session_stats(id);
  ASSERT_EQ(stats.rounds_full + stats.rounds_degraded + stats.rounds_shed, 0u);

  // Past the quorum deadline the timer tick fires the round.
  EXPECT_FALSE(manager.poll(id, last_t + 2.5).has_value());
  stats = manager.session_stats(id);
  EXPECT_EQ(stats.rounds_full + stats.rounds_degraded + stats.rounds_shed, 1u);
  EXPECT_EQ(stats.rounds_degraded, 1u);
  EXPECT_EQ(stats.failed_rounds, 1u);
  EXPECT_EQ(stats.deadline_limited_rounds, 1u);
  EXPECT_EQ(stats.fixes, 0u);
}

// --- FakeClock scheduling helpers (the machinery the deadline tests
// above and the transport chaos harness lean on) ---

TEST(FakeClockSchedule, CallbacksFireInTimeOrderAtTheirOwnTimestamps) {
  FakeClock clock(0.0);
  std::vector<std::pair<double, double>> fired;  // (scheduled at, now seen)
  clock.schedule(3.0, [&] { fired.emplace_back(3.0, clock.now_s()); });
  clock.schedule(1.0, [&] { fired.emplace_back(1.0, clock.now_s()); });
  clock.schedule(2.0, [&] { fired.emplace_back(2.0, clock.now_s()); });

  clock.advance_to(2.5);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair<double, double>{1.0, 1.0}));
  EXPECT_EQ(fired[1], (std::pair<double, double>{2.0, 2.0}));
  EXPECT_DOUBLE_EQ(clock.now_s(), 2.5);

  clock.advance(1.0);  // 2.5 -> 3.5 crosses the 3.0 callback
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[2], (std::pair<double, double>{3.0, 3.0}));
  EXPECT_DOUBLE_EQ(clock.now_s(), 3.5);
}

TEST(FakeClockSchedule, CallbacksMayScheduleWithinTheTraversedSpan) {
  FakeClock clock(0.0);
  std::vector<double> fired;
  clock.schedule(1.0, [&] {
    fired.push_back(clock.now_s());
    clock.schedule(1.5, [&] { fired.push_back(clock.now_s()); });
  });
  clock.advance_to(2.0);
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(fired[0], 1.0);
  EXPECT_DOUBLE_EQ(fired[1], 1.5);
  EXPECT_DOUBLE_EQ(clock.now_s(), 2.0);
}

TEST(FakeClockSchedule, AutoAdvanceStepsPerReadAndDisables) {
  FakeClock clock(0.0);
  clock.set_auto_advance(0.5);
  EXPECT_DOUBLE_EQ(clock.now_s(), 0.0);  // post-increment semantics
  EXPECT_DOUBLE_EQ(clock.now_s(), 0.5);
  clock.set_auto_advance(0.0);
  EXPECT_DOUBLE_EQ(clock.now_s(), 1.0);
  EXPECT_DOUBLE_EQ(clock.now_s(), 1.0);
}

// --- stats folding across sessions ---

TEST(SessionStatsFold, CloseRetiresCountersIntoGlobalTotals) {
  Feed feed(2);
  SessionConfig cfg = base_session(feed, 1000);  // rounds never fire
  cfg.overload.queue_capacity = 4;
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 1;
  SessionManager manager(kLink, mgr_cfg);
  const SessionId a = manager.open_session(cfg);
  const SessionId b = manager.open_session(cfg);

  for (int i = 0; i < 6; ++i) {  // 4 accepted + 2 shed per session
    (void)manager.offer(a, 0, feed.captures[0].packets[0]);
    (void)manager.offer(b, 0, feed.captures[0].packets[0]);
  }
  const SessionStats sa = manager.session_stats(a);
  EXPECT_EQ(sa.accepted, 4u);
  EXPECT_EQ(sa.shed_packets, 2u);

  SessionStats global = manager.global_stats();
  EXPECT_EQ(global.offered, 12u);
  EXPECT_EQ(global.accepted, 8u);
  EXPECT_EQ(global.shed_packets, 4u);

  manager.close_session(a);
  EXPECT_EQ(manager.session_count(), 1u);
  global = manager.global_stats();  // retired + live must still add up
  EXPECT_EQ(global.offered, 12u);
  EXPECT_EQ(global.accepted, 8u);
  EXPECT_EQ(global.shed_packets, 4u);
  EXPECT_THROW((void)manager.session_stats(a), ContractViolation);
}

TEST(SessionStatsFold, CloseRacingFinalPumpRetiresExactlyOnce) {
  // A consumer thread pumps while the session closes under it: whichever
  // side wins, the session's counters must fold into the global totals
  // exactly once, and re-closing the already-closed id stays a no-op.
  Feed feed(2);
  SessionConfig cfg = base_session(feed, 1000);  // rounds never fire
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 1;
  SessionManager manager(kLink, mgr_cfg);
  const SessionId id = manager.open_session(cfg);
  constexpr std::size_t kOffers = 8;
  for (std::size_t i = 0; i < kOffers; ++i) {
    ASSERT_TRUE(manager.offer(id, 0, feed.captures[0].packets[0]).admitted());
  }

  std::atomic<bool> go{false};
  std::thread pumper([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    // The pump may land before, during, or after the close; a closed id
    // throws, which simply ends the race.
    try {
      for (int i = 0; i < 64; ++i) (void)manager.pump(id);
    } catch (const ContractViolation&) {
    }
  });
  go.store(true, std::memory_order_release);
  manager.close_session(id);
  pumper.join();

  // Exactly-once retirement: the offered/accepted counters appear once
  // in the global aggregate, no matter how the race resolved.
  SessionStats global = manager.global_stats();
  EXPECT_EQ(global.offered, kOffers);
  EXPECT_EQ(global.accepted, kOffers);
  EXPECT_EQ(manager.session_count(), 0u);
  // Idempotent close: a second (and third) close of the same id is a
  // no-op, never a double retirement.
  manager.close_session(id);
  manager.close_session(id);
  global = manager.global_stats();
  EXPECT_EQ(global.offered, kOffers);
  EXPECT_EQ(global.accepted, kOffers);
}

}  // namespace
}  // namespace spotfi
