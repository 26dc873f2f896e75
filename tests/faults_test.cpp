// Tests for the fault-injection harness (channel/faults) and the
// graceful-degradation machinery it exercises: AP health states, quorum
// deadline rounds, the estimator fallback chain, and leave-one-out
// outlier-AP rejection. The acceptance scenario of the robustness issue —
// 6 APs, one killed mid-stream, pipeline keeps emitting fixes and the
// dead AP recovers — lives here as FaultMatrix.SurvivesApOutage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "channel/faults.hpp"
#include "common/stats.hpp"
#include "core/streaming.hpp"
#include "testbed/experiment.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

CsiPacket good_packet(Rng& rng, double timestamp = 0.0) {
  ImpairmentConfig imp;
  const CsiSynthesizer synth(kLink, imp);
  PathComponent p;
  p.aoa_rad = 0.3;
  p.tof_s = 40e-9;
  p.gain_db = -55.0;
  p.is_direct = true;
  return synth.synthesize(std::span<const PathComponent>(&p, 1), timestamp,
                          rng);
}

CsiPacket nan_packet(Rng& rng, double timestamp, bool nan_rssi = false) {
  CsiPacket packet = good_packet(rng, timestamp);
  for (auto& v : packet.csi.flat()) v = cplx(kNan, kNan);
  if (nan_rssi) packet.rssi_dbm = kNan;
  return packet;
}

// --- FaultInjector ---

TEST(FaultInjector, OutageSwallowsAndRecovers) {
  FaultPlan plan;
  plan.aps.resize(1);
  plan.aps[0].outages = {{1.0, 2.0}};
  FaultInjector injector(plan, 2);
  Rng rng(1), rng_pkt(2);

  std::size_t delivered = 0;
  for (int i = 0; i < 12; ++i) {
    const double t = 0.25 * i;
    const auto out = injector.inject(0, good_packet(rng_pkt, t), rng);
    if (t >= 1.0 && t < 2.0) {
      EXPECT_TRUE(out.empty()) << "t=" << t;
      EXPECT_TRUE(injector.in_outage(0, t));
    } else {
      EXPECT_EQ(out.size(), 1u) << "t=" << t;
      EXPECT_FALSE(injector.in_outage(0, t));
    }
    delivered += out.size();
  }
  EXPECT_EQ(injector.stats().outage_swallowed, 4u);  // t = 1.0 .. 1.75
  EXPECT_EQ(injector.stats().delivered, delivered);
  // AP 1 has no profile: clean passthrough.
  EXPECT_EQ(injector.inject(1, good_packet(rng_pkt, 0.0), rng).size(), 1u);
}

TEST(FaultInjector, DeterministicUnderSeed) {
  FaultPlan plan;
  plan.aps.resize(1);
  plan.aps[0].loss_prob = 0.3;
  plan.aps[0].nan_burst_prob = 0.3;
  plan.aps[0].clip_prob = 0.2;

  std::vector<double> reference;
  for (int run = 0; run < 2; ++run) {
    FaultInjector injector(plan, 1);
    Rng rng(77), rng_pkt(78);
    std::vector<double> signature;
    for (int i = 0; i < 50; ++i) {
      for (const auto& p : injector.inject(0, good_packet(rng_pkt, 0.1 * i),
                                           rng)) {
        signature.push_back(p.timestamp_s);
        signature.push_back(std::norm(p.csi(0, 0)));
      }
    }
    if (run == 0) {
      reference = signature;
    } else {
      EXPECT_EQ(signature, reference);
    }
  }
}

TEST(FaultInjector, ReorderingDeliversOutOfOrder) {
  FaultPlan plan;
  plan.aps.resize(1);
  plan.aps[0].reorder_prob = 0.5;
  plan.aps[0].reorder_delay = 2;
  FaultInjector injector(plan, 1);
  Rng rng(5), rng_pkt(6);

  std::vector<double> delivered;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    for (const auto& p : injector.inject(0, good_packet(rng_pkt, 0.1 * i),
                                         rng)) {
      delivered.push_back(p.timestamp_s);
    }
  }
  EXPECT_GT(injector.stats().reordered, 0u);
  // Nothing lost: delivered + still-held == fed.
  EXPECT_LE(delivered.size(), static_cast<std::size_t>(n));
  EXPECT_GE(delivered.size(),
            static_cast<std::size_t>(n) - plan.aps[0].reorder_delay - 1);
  // And the order is genuinely scrambled somewhere.
  bool out_of_order = false;
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    if (delivered[i] < delivered[i - 1]) out_of_order = true;
  }
  EXPECT_TRUE(out_of_order);
}

TEST(FaultInjector, CorruptionFaults) {
  FaultPlan plan;
  plan.aps.resize(1);
  plan.aps[0].nan_burst_prob = 1.0;
  FaultInjector injector(plan, 1);
  Rng rng(7), rng_pkt(8);

  const auto out = injector.inject(0, good_packet(rng_pkt, 0.0), rng);
  ASSERT_EQ(out.size(), 1u);
  bool any_nan = false;
  for (const auto& v : out[0].csi.flat()) {
    if (!std::isfinite(v.real())) any_nan = true;
  }
  EXPECT_TRUE(any_nan);

  FaultPlan chain_plan;
  chain_plan.aps.resize(1);
  chain_plan.aps[0].dead_chain = 1;
  FaultInjector chain_killer(chain_plan, 1);
  Rng rng_c(7), rng_pkt_c(8);
  const auto dead = chain_killer.inject(0, good_packet(rng_pkt_c, 0.0), rng_c);
  ASSERT_EQ(dead.size(), 1u);
  for (std::size_t s = 0; s < dead[0].csi.cols(); ++s) {
    EXPECT_EQ(dead[0].csi(1, s), cplx{});
  }

  FaultPlan clip_plan;
  clip_plan.aps.resize(1);
  clip_plan.aps[0].clip_prob = 1.0;
  clip_plan.aps[0].clip_gain_db = 20.0;
  FaultInjector clipper(clip_plan, 1);
  Rng rng2(9), rng_pkt2(10);
  const auto reference = good_packet(rng_pkt2, 0.0);
  Rng rng_pkt3(10);  // same seed: identical packet
  const auto clipped = clipper.inject(0, good_packet(rng_pkt3, 0.0), rng2);
  ASSERT_EQ(clipped.size(), 1u);
  EXPECT_NEAR(std::abs(clipped[0].csi(0, 0)) / std::abs(reference.csi(0, 0)),
              10.0, 1e-6);  // +20 dB amplitude
}

TEST(FaultInjector, StaleTimestamps) {
  FaultPlan plan;
  plan.aps.resize(1);
  plan.aps[0].stale_prob = 1.0;
  FaultInjector injector(plan, 1);
  Rng rng(11), rng_pkt(12);
  const auto first = injector.inject(0, good_packet(rng_pkt, 1.0), rng);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].timestamp_s, 1.0);  // nothing delivered before it
  const auto second = injector.inject(0, good_packet(rng_pkt, 2.0), rng);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].timestamp_s, 1.0);  // frozen clock
  EXPECT_GE(injector.stats().stale_stamped, 1u);
}

TEST(FaultInjector, ContractChecks) {
  FaultPlan plan;
  plan.aps.resize(3);
  EXPECT_THROW(FaultInjector(plan, 2), ContractViolation);
  plan.aps.resize(1);
  plan.aps[0].outages = {{2.0, 1.0}};
  EXPECT_THROW(FaultInjector(plan, 1), ContractViolation);
}

// --- estimator fallback chain ---

TEST(FallbackChain, PrimaryOnCleanGroup) {
  Rng rng(20);
  std::vector<CsiPacket> group;
  for (int i = 0; i < 6; ++i) group.push_back(good_packet(rng, 0.1 * i));
  const ApProcessor processor(kLink, ArrayPose{{0.0, 0.0}, 0.3});
  const ApOutcome outcome = processor.process_robust(group, rng);
  EXPECT_TRUE(outcome.usable);
  EXPECT_EQ(outcome.stage, ApStage::kPrimary);
  EXPECT_TRUE(outcome.result.observation.has_aoa);
  EXPECT_EQ(outcome.note, "");  // a clean group must not report numerics
}

TEST(FallbackChain, RssiOnlyWhenCsiCorrupt) {
  Rng rng(21);
  std::vector<CsiPacket> group;
  for (int i = 0; i < 5; ++i) group.push_back(nan_packet(rng, 0.1 * i));
  const ApProcessor processor(kLink, ArrayPose{{0.0, 0.0}, 0.0});
  const ApOutcome outcome = processor.process_robust(group, rng);
  EXPECT_TRUE(outcome.usable);
  EXPECT_EQ(outcome.stage, ApStage::kRssiOnly);
  EXPECT_FALSE(outcome.result.observation.has_aoa);
  EXPECT_TRUE(std::isfinite(outcome.result.observation.rssi_dbm));
  EXPECT_GT(outcome.result.observation.likelihood, 0.0);
  EXPECT_FALSE(outcome.note.empty());
}

TEST(FallbackChain, EstimatorFailureIsCaughtNotThrown) {
  // Disable every quality check so NaN CSI reaches MUSIC/ESPRIT and they
  // break internally; the chain must swallow that and degrade to
  // RSSI-only instead of throwing.
  Rng rng(22);
  std::vector<CsiPacket> group;
  for (int i = 0; i < 4; ++i) group.push_back(nan_packet(rng, 0.1 * i));
  ApProcessorConfig cfg;
  QualityConfig lax;
  lax.check_finite = false;
  lax.check_dead_antenna = false;
  lax.max_antenna_imbalance_db = 1e12;
  lax.max_power_jump_db = 1e12;
  cfg.quality = lax;
  const ApProcessor processor(kLink, ArrayPose{{0.0, 0.0}, 0.0}, cfg);
  ApOutcome outcome;
  EXPECT_NO_THROW(outcome = processor.process_robust(group, rng));
  EXPECT_EQ(outcome.stage, ApStage::kRssiOnly);
  EXPECT_TRUE(outcome.usable);
}

TEST(FallbackChain, FailsOnlyWhenNothingUsable) {
  Rng rng(23);
  std::vector<CsiPacket> group;
  for (int i = 0; i < 4; ++i) {
    group.push_back(nan_packet(rng, 0.1 * i, /*nan_rssi=*/true));
  }
  const ApProcessor processor(kLink, ArrayPose{{0.0, 0.0}, 0.0});
  const ApOutcome outcome = processor.process_robust(group, rng);
  EXPECT_FALSE(outcome.usable);
  EXPECT_EQ(outcome.stage, ApStage::kFailed);
  EXPECT_EQ(outcome.result.observation.likelihood, 0.0);
}

/// The estimator rungs a note names, in order ("primary,esprit"): the
/// ladder prefixes each failed attempt with its rung's name.
std::string rungs_in_note(const std::string& note) {
  std::string rungs;
  std::size_t begin = 0;
  while (begin < note.size()) {
    const std::size_t end = std::min(note.find("; ", begin), note.size());
    const std::string name = note.substr(begin, note.find(": ", begin) - begin);
    for (const ApStage rung :
         {ApStage::kPrimary, ApStage::kRelaxedMusic, ApStage::kEsprit}) {
      if (name != to_string(rung)) continue;
      if (!rungs.empty()) rungs += ",";
      rungs += name;
    }
    begin = end + 2;
  }
  return rungs;
}

TEST(FallbackChain, RungOrderFollowsFrontEndEntryAndRung) {
  // NaN CSI past a relaxed screen makes every estimator fail, so the
  // note lists every rung the ladder ran. An ESPRIT front end runs no
  // relaxed MUSIC when it enters there, whether the entry is configured
  // or planned, and never retries ESPRIT after an ESPRIT primary.
  constexpr ApStage P = ApStage::kPrimary;
  constexpr ApStage R = ApStage::kRelaxedMusic;
  constexpr ApStage E = ApStage::kEsprit;
  constexpr FrontEnd kMusic = FrontEnd::kMusic;
  constexpr FrontEnd kEsprit = FrontEnd::kEsprit;
  struct Row {
    FrontEnd front_end;
    ApStage entry_stage;
    ApStage rung;
    const char* rungs;
  };
  const Row rows[] = {
      {kMusic, P, P, "primary,relaxed-music,esprit"},
      {kMusic, P, R, "relaxed-music,esprit"},
      {kMusic, R, P, "relaxed-music,esprit"},
      {kMusic, R, R, "relaxed-music,esprit"},
      {kMusic, E, P, "esprit"},
      {kMusic, E, R, "esprit"},
      {kEsprit, P, P, "primary,relaxed-music"},
      {kEsprit, P, R, "esprit"},
      {kEsprit, R, P, "esprit"},
      {kEsprit, R, R, "esprit"},
      {kEsprit, E, P, "esprit"},
      {kEsprit, E, R, "esprit"},
  };
  Rng rng(25);
  std::vector<CsiPacket> group;
  for (int i = 0; i < 4; ++i) group.push_back(nan_packet(rng, 0.1 * i));
  for (const Row& row : rows) {
    ApProcessorConfig cfg;
    cfg.front_end = row.front_end;
    cfg.fallback.entry_stage = row.entry_stage;
    cfg.quality.check_finite = false;
    cfg.quality.check_dead_antenna = false;
    cfg.quality.max_antenna_imbalance_db = 1e12;
    cfg.quality.max_power_jump_db = 1e12;
    const ApProcessor processor(kLink, ArrayPose{{0.0, 0.0}, 0.0}, cfg);
    const ApOutcome outcome = processor.process_robust(group, rng, row.rung);
    SCOPED_TRACE(::testing::Message()
                 << (row.front_end == kMusic ? "MUSIC" : "ESPRIT") << "/"
                 << to_string(row.entry_stage) << "/"
                 << to_string(row.rung) << ": " << outcome.note);
    EXPECT_EQ(rungs_in_note(outcome.note), row.rungs);
    EXPECT_EQ(outcome.stage, ApStage::kRssiOnly);
  }
}

// --- streaming feed through the injector ---

/// Office-deployment packet streams, one burst per AP, shared timestamps.
struct Feed {
  ExperimentRunner runner;
  std::vector<ApCapture> captures;

  explicit Feed(std::size_t packets, Vec2 target = {6.0, 3.5})
      : runner(kLink, office_deployment(), make_config(packets)) {
    Rng rng(31);
    captures = runner.simulate_captures(target, rng);
  }
  static ExperimentConfig make_config(std::size_t packets) {
    ExperimentConfig config;
    config.packets_per_group = packets;
    return config;
  }
};

StreamingConfig degradation_config(const Feed& feed, std::size_t group_size) {
  StreamingConfig cfg;
  cfg.group_size = group_size;
  cfg.server.localizer.area_min = feed.runner.deployment().area_min;
  cfg.server.localizer.area_max = feed.runner.deployment().area_max;
  cfg.degradation.round_deadline_s = 0.5;
  cfg.degradation.degraded_after_s = 0.5;
  cfg.degradation.dead_after_s = 1.0;
  return cfg;
}

TEST(FaultMatrix, SurvivesApOutage) {
  const Vec2 target{6.0, 3.5};
  const std::size_t n_packets = 60;  // 6 s of stream at 0.1 s spacing
  Feed feed(n_packets, target);
  const std::size_t n_aps = feed.captures.size();
  ASSERT_EQ(n_aps, 6u);

  StreamingLocalizer server(kLink, degradation_config(feed, 5));
  for (const auto& c : feed.captures) server.add_ap(c.pose);

  constexpr std::size_t kVictim = 2;
  constexpr double kKill = 1.5, kRecover = 4.0;
  FaultPlan plan;
  plan.aps.resize(n_aps);
  plan.aps[kVictim].outages = {{kKill, kRecover}};
  FaultInjector injector(plan, n_aps);

  Rng rng(32);
  std::vector<double> errors;
  std::vector<double> fix_times;
  bool victim_died = false, victim_recovered = false;
  std::size_t degraded_fixes = 0;

  for (std::size_t p = 0; p < n_packets; ++p) {
    for (std::size_t a = 0; a < n_aps; ++a) {
      for (const auto& packet :
           injector.inject(a, feed.captures[a].packets[p], rng)) {
        std::optional<LocationFix> fix;
        EXPECT_NO_THROW(fix = server.push(a, packet, rng));
        if (fix) {
          errors.push_back(distance(fix->raw, target));
          fix_times.push_back(fix->time_s);
          if (fix->degraded) ++degraded_fixes;
        }
      }
    }
    // Health bookkeeping: the victim must be declared dead during the
    // outage and healthy again after recovery.
    if (server.ap_health(kVictim) == ApHealth::kDead) victim_died = true;
    if (victim_died && server.ap_health(kVictim) == ApHealth::kHealthy) {
      victim_recovered = true;
    }
  }

  ASSERT_FALSE(errors.empty());
  // No permanent stall: fixes keep coming while the victim is down (after
  // the deadline) and after it recovers.
  bool fix_during_outage = false, fix_after_recovery = false;
  for (const double t : fix_times) {
    if (t > kKill + 1.0 && t <= kRecover) fix_during_outage = true;
    if (t > kRecover) fix_after_recovery = true;
  }
  EXPECT_TRUE(fix_during_outage);
  EXPECT_TRUE(fix_after_recovery);
  EXPECT_GT(degraded_fixes, 0u);

  // Health state machine walked healthy -> dead -> healthy.
  EXPECT_TRUE(victim_died);
  EXPECT_TRUE(victim_recovered);
  EXPECT_GE(server.ap_state(kVictim).recoveries, 1u);

  // Accuracy degrades boundedly (Fig. 9a: 5 of 6 APs stays decimeter-ish;
  // our simulated office keeps the median well inside a few meters).
  EXPECT_LT(median(errors), 4.0);
}

TEST(FaultMatrix, NanBurstsNeverEscapePush) {
  Feed feed(12);
  StreamingConfig cfg = degradation_config(feed, 3);
  cfg.screen_packets = false;  // let corrupt packets reach the pipeline
  StreamingLocalizer server(kLink, cfg);
  for (const auto& c : feed.captures) server.add_ap(c.pose);

  Rng rng(33);
  std::size_t fixes = 0;
  for (std::size_t p = 0; p < 12; ++p) {
    for (std::size_t a = 0; a < feed.captures.size(); ++a) {
      CsiPacket packet = feed.captures[a].packets[p];
      for (auto& v : packet.csi.flat()) v = cplx(kNan, kNan);
      std::optional<LocationFix> fix;
      EXPECT_NO_THROW(fix = server.push(a, packet, rng));
      if (fix) {
        ++fixes;
        // Every AP had corrupt CSI: the fix can only come from the
        // RSSI-only floor of the fallback chain.
        EXPECT_TRUE(fix->degraded);
        for (const ApStage stage : fix->round.ap_stages) {
          EXPECT_EQ(stage, ApStage::kRssiOnly);
        }
      }
    }
  }
  EXPECT_GT(fixes + server.failed_rounds(), 0u);
}

TEST(FaultMatrix, AllApsCorruptRecordsRoundFailure) {
  Feed feed(6);
  StreamingConfig cfg = degradation_config(feed, 3);
  cfg.screen_packets = false;
  StreamingLocalizer server(kLink, cfg);
  for (const auto& c : feed.captures) server.add_ap(c.pose);

  Rng rng(34);
  for (std::size_t p = 0; p < 6; ++p) {
    for (std::size_t a = 0; a < feed.captures.size(); ++a) {
      CsiPacket packet = feed.captures[a].packets[p];
      for (auto& v : packet.csi.flat()) v = cplx(kNan, kNan);
      packet.rssi_dbm = kNan;  // not even RSSI survives
      EXPECT_NO_THROW((void)server.push(a, packet, rng));
    }
  }
  EXPECT_GT(server.failed_rounds(), 0u);
  ASSERT_TRUE(server.last_failure().has_value());
  EXPECT_NE(server.last_failure()->reason.find("usable"), std::string::npos);
  EXPECT_EQ(server.fix_count(), 0u);
}

TEST(Degradation, PollFiresDeadlineRoundWithoutPackets) {
  Feed feed(8);
  StreamingConfig cfg = degradation_config(feed, 4);
  StreamingLocalizer server(kLink, cfg);
  for (const auto& c : feed.captures) server.add_ap(c.pose);

  Rng rng(35);
  // Fill only APs 0 and 1 (a quorum); the rest stay silent forever.
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t a = 0; a < 2; ++a) {
      EXPECT_FALSE(server.push(a, feed.captures[a].packets[p], rng));
    }
  }
  // Deadline expires in stream time: a poll alone must fire the round.
  const auto fix = server.poll(10.0, rng);
  ASSERT_TRUE(fix.has_value());
  EXPECT_TRUE(fix->degraded);
  EXPECT_EQ(fix->aps_used.size(), 2u);
  EXPECT_FALSE(fix->reasons.empty());
}

TEST(Degradation, DeadlineRoundSkipsApsBelowThreePackets) {
  // A deadline round takes every AP holding at least three packets (or a
  // full group, when groups are smaller); fewer only add clustering noise.
  Feed feed(4);
  StreamingConfig cfg = degradation_config(feed, 4);
  StreamingLocalizer server(kLink, cfg);
  for (std::size_t a = 0; a < 4; ++a) server.add_ap(feed.captures[a].pose);

  Rng rng(39);
  const std::size_t held[] = {4, 4, 2, 3};
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t a = 0; a < 4; ++a) {
      if (p < held[a]) {
        EXPECT_FALSE(server.push(a, feed.captures[a].packets[p], rng));
      }
    }
  }
  const auto fix = server.poll(10.0, rng);
  ASSERT_TRUE(fix.has_value());
  EXPECT_TRUE(fix->degraded);
  EXPECT_EQ(fix->aps_used, (std::vector<std::size_t>{0, 1, 3}));
}

TEST(Degradation, HealthTransitionsOnSilence) {
  Feed feed(40);
  StreamingConfig cfg = degradation_config(feed, 100);  // never fire
  StreamingLocalizer server(kLink, cfg);
  for (const auto& c : feed.captures) server.add_ap(c.pose);

  Rng rng(36);
  // Both APs alive at t ~ 0.
  (void)server.push(0, feed.captures[0].packets[0], rng);
  (void)server.push(1, feed.captures[1].packets[0], rng);
  EXPECT_EQ(server.ap_health(1), ApHealth::kHealthy);

  // AP 1 goes silent; AP 0 keeps streaming and advances stream time.
  CsiPacket p = feed.captures[0].packets[1];
  p.timestamp_s = 0.7;  // silence(1) = 0.7 >= degraded_after 0.5
  (void)server.push(0, p, rng);
  EXPECT_EQ(server.ap_health(1), ApHealth::kDegraded);

  p.timestamp_s = 1.5;  // silence(1) = 1.5 >= dead_after 1.0
  (void)server.push(0, p, rng);
  EXPECT_EQ(server.ap_health(1), ApHealth::kDead);
  EXPECT_EQ(server.ap_health(0), ApHealth::kHealthy);

  // Fresh packet revives AP 1.
  CsiPacket revive = feed.captures[1].packets[1];
  revive.timestamp_s = 1.6;
  (void)server.push(1, revive, rng);
  EXPECT_EQ(server.ap_health(1), ApHealth::kHealthy);
  EXPECT_EQ(server.ap_state(1).recoveries, 1u);
}

TEST(Degradation, LeaveOneOutRejectsLyingAp) {
  // One AP's array pose is mis-surveyed by meters: its bearing is
  // confidently wrong. The LOO residual check should reject it.
  Feed feed(15);
  auto captures = feed.captures;
  captures[0].pose.position += Vec2{5.0, -4.0};

  ServerConfig cfg;
  cfg.localizer.area_min = feed.runner.deployment().area_min;
  cfg.localizer.area_max = feed.runner.deployment().area_max;
  const SpotFiServer server(kLink, cfg);
  Rng rng(37);
  const auto outcome = server.try_localize(captures, rng);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_FALSE(outcome->rejected_aps.empty());
  EXPECT_NE(std::find(outcome->rejected_aps.begin(),
                      outcome->rejected_aps.end(), 0u),
            outcome->rejected_aps.end());
  EXPECT_TRUE(outcome->degraded);
  EXPECT_LT(distance(outcome->location.position, {6.0, 3.5}), 3.0);
}

TEST(Degradation, LeaveOneOutNeverRejectsBelowFourAps) {
  // The lying AP of LeaveOneOutRejectsLyingAp, in a round of only four:
  // rejecting it would leave three, below the floor, so it stays.
  Feed feed(15);
  std::vector<ApCapture> captures(feed.captures.begin(),
                                  feed.captures.begin() + 4);
  captures[0].pose.position += Vec2{5.0, -4.0};

  ServerConfig cfg;
  cfg.localizer.area_min = feed.runner.deployment().area_min;
  cfg.localizer.area_max = feed.runner.deployment().area_max;
  const SpotFiServer server(kLink, cfg);
  Rng rng(37);
  const auto outcome = server.try_localize(captures, rng);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_EQ(outcome->ap_stages.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NE(outcome->ap_stages[i], ApStage::kFailed) << "ap " << i;
    EXPECT_GT(outcome->ap_results[i].observation.likelihood, 0.0)
        << "ap " << i;
  }
  EXPECT_TRUE(outcome->rejected_aps.empty());
}

TEST(Degradation, StrictModeStillBlocksOnAllAps) {
  Feed feed(8);
  StreamingConfig cfg = degradation_config(feed, 4);
  cfg.degradation.enabled = false;
  StreamingLocalizer server(kLink, cfg);
  for (const auto& c : feed.captures) server.add_ap(c.pose);

  Rng rng(38);
  // Quorum of two full groups + expired deadline must NOT fire.
  for (std::size_t p = 0; p < 4; ++p) {
    for (std::size_t a = 0; a < 2; ++a) {
      EXPECT_FALSE(server.push(a, feed.captures[a].packets[p], rng));
    }
  }
  EXPECT_FALSE(server.poll(100.0, rng).has_value());
}

}  // namespace
}  // namespace spotfi
