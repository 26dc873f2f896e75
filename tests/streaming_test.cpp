// Tests for CSI quality screening (failure injection) and the streaming
// localization server.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "core/streaming.hpp"
#include "testbed/experiment.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();

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

// --- quality screening / failure injection ---

TEST(Quality, AcceptsHealthyPacket) {
  Rng rng(1);
  const auto packet = good_packet(rng);
  const QualityVerdict verdict = screen_packet(packet);
  EXPECT_TRUE(verdict.ok);
  EXPECT_TRUE(verdict.reason.empty());
}

TEST(Quality, RejectsNanEntry) {
  Rng rng(2);
  auto packet = good_packet(rng);
  packet.csi(1, 7) = cplx(std::numeric_limits<double>::quiet_NaN(), 0.0);
  const QualityVerdict verdict = screen_packet(packet);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.reason.find("non-finite"), std::string::npos);
}

TEST(Quality, RejectsInfiniteRssi) {
  Rng rng(3);
  auto packet = good_packet(rng);
  packet.rssi_dbm = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(screen_packet(packet).ok);
}

TEST(Quality, RejectsDeadAntenna) {
  Rng rng(4);
  auto packet = good_packet(rng);
  for (std::size_t n = 0; n < packet.csi.cols(); ++n) {
    packet.csi(2, n) = cplx{};
  }
  const QualityVerdict verdict = screen_packet(packet);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.reason.find("dead antenna"), std::string::npos);
}

TEST(Quality, RejectsGrossAntennaImbalance) {
  Rng rng(5);
  auto packet = good_packet(rng);
  for (std::size_t n = 0; n < packet.csi.cols(); ++n) {
    packet.csi(0, n) *= 1e4;  // +80 dB on one chain
  }
  const QualityVerdict verdict = screen_packet(packet);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.reason.find("imbalance"), std::string::npos);
}

TEST(Quality, RejectsEmptyPacket) {
  CsiPacket packet;
  EXPECT_FALSE(screen_packet(packet).ok);
}

TEST(Quality, GroupScreenDropsPowerJump) {
  Rng rng(6);
  std::vector<CsiPacket> group;
  for (int i = 0; i < 8; ++i) group.push_back(good_packet(rng, 0.1 * i));
  // One clipped packet: +40 dB power.
  for (auto& v : group[3].csi.flat()) v *= 100.0;
  std::vector<std::string> rejected;
  const auto accepted = screen_group(group, {}, &rejected);
  EXPECT_EQ(accepted.size(), 7u);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_NE(rejected[0].find("packet 3"), std::string::npos);
  EXPECT_NE(rejected[0].find("power jump"), std::string::npos);
}

TEST(Quality, GroupScreenKeepsCleanGroup) {
  Rng rng(7);
  std::vector<CsiPacket> group;
  for (int i = 0; i < 6; ++i) group.push_back(good_packet(rng, 0.1 * i));
  EXPECT_EQ(screen_group(group).size(), 6u);
  EXPECT_TRUE(screen_group({}).empty());
}

TEST(Quality, ChecksCanBeDisabled) {
  Rng rng(8);
  auto packet = good_packet(rng);
  for (std::size_t n = 0; n < packet.csi.cols(); ++n) {
    packet.csi(2, n) = cplx{};
  }
  QualityConfig cfg;
  cfg.check_dead_antenna = false;
  cfg.max_antenna_imbalance_db = 1e9;
  EXPECT_TRUE(screen_packet(packet, cfg).ok);
}

TEST(Quality, SinglePacketGroupIsItsOwnMedian) {
  // The power-jump check compares against the group median; with one
  // packet that median is the packet itself, so the jump is zero and a
  // clean packet must survive.
  Rng rng(41);
  std::vector<CsiPacket> group{good_packet(rng)};
  EXPECT_EQ(screen_group(group).size(), 1u);

  // Even a clipped single packet survives the jump check (no reference
  // to compare against) as long as the per-packet checks pass.
  for (auto& v : group[0].csi.flat()) v *= 100.0;
  EXPECT_EQ(screen_group(group).size(), 1u);
}

TEST(Quality, AllPacketsRejectedGroup) {
  Rng rng(42);
  std::vector<CsiPacket> group;
  for (int i = 0; i < 4; ++i) {
    auto packet = good_packet(rng, 0.1 * i);
    packet.csi(0, 0) = cplx(std::numeric_limits<double>::quiet_NaN(), 0.0);
    group.push_back(packet);
  }
  std::vector<std::string> rejected;
  EXPECT_TRUE(screen_group(group, {}, &rejected).empty());
  EXPECT_EQ(rejected.size(), 4u);
}

TEST(Quality, AntennaImbalanceBoundary) {
  // Build a packet whose rows differ by an exact, known power ratio and
  // probe both sides of max_antenna_imbalance_db.
  CsiPacket packet;
  packet.csi = CMatrix(3, 30, cplx(1.0, 0.0));
  packet.rssi_dbm = -50.0;
  // Row 0 raised so the row-power spread is exactly `spread_db`.
  auto with_spread = [&](double spread_db) {
    CsiPacket p = packet;
    const double amp = std::pow(10.0, spread_db / 20.0);
    for (std::size_t n = 0; n < p.csi.cols(); ++n) p.csi(0, n) *= amp;
    return p;
  };
  QualityConfig cfg;
  cfg.max_antenna_imbalance_db = 25.0;
  EXPECT_TRUE(screen_packet(with_spread(24.9), cfg).ok);
  EXPECT_FALSE(screen_packet(with_spread(25.1), cfg).ok);
  // The check rejects only above the threshold (strict inequality), so
  // the documented "real chains sit within ~10 dB" margin is inclusive.
  EXPECT_TRUE(screen_packet(with_spread(0.0), cfg).ok);
}

TEST(Quality, DeadAntennaFloorBoundary) {
  // All rows share the same tiny power so the imbalance check stays
  // quiet; probe the dead_antenna_floor on both sides.
  auto uniform_power = [](double row_power) {
    CsiPacket p;
    const double amp = std::sqrt(row_power / 30.0);
    p.csi = CMatrix(3, 30, cplx(amp, 0.0));
    p.rssi_dbm = -80.0;
    return p;
  };
  QualityConfig cfg;
  cfg.dead_antenna_floor = 1e-9;
  EXPECT_TRUE(screen_packet(uniform_power(2e-9), cfg).ok);
  EXPECT_FALSE(screen_packet(uniform_power(0.5e-9), cfg).ok);
  // Disabling the check admits the silent row.
  cfg.check_dead_antenna = false;
  EXPECT_TRUE(screen_packet(uniform_power(0.5e-9), cfg).ok);
}

TEST(Quality, ApProcessorScreensWhenConfigured) {
  // A group with one NaN packet: the screen drops it and the primary
  // estimator runs on the clean subset; a fully corrupt group never
  // reaches an estimator.
  Rng rng(9);
  std::vector<CsiPacket> group;
  for (int i = 0; i < 8; ++i) group.push_back(good_packet(rng, 0.1 * i));
  group[2].csi(0, 0) = cplx(std::numeric_limits<double>::quiet_NaN(), 0.0);

  ApProcessorConfig cfg;
  cfg.quality = QualityConfig{};
  const ApProcessor processor(kLink, ArrayPose{{0.0, 0.0}, 0.3}, cfg);
  const ApOutcome outcome = processor.process_robust(group, rng);
  EXPECT_EQ(outcome.stage, ApStage::kPrimary) << outcome.note;
  EXPECT_FALSE(outcome.result.clusters.empty());

  std::vector<CsiPacket> all_bad(3, group[2]);
  const ApOutcome rejected = processor.process_robust(all_bad, rng);
  EXPECT_NE(rejected.stage, ApStage::kPrimary);
  EXPECT_NE(rejected.note.find("quality screen rejected every packet"),
            std::string::npos)
      << rejected.note;
}

// --- streaming server ---

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
};

TEST(Streaming, FiresAfterFullGroups) {
  Feed feed(6);
  StreamingConfig cfg;
  cfg.group_size = 6;
  cfg.server.localizer.area_min = feed.runner.deployment().area_min;
  cfg.server.localizer.area_max = feed.runner.deployment().area_max;
  StreamingLocalizer server(kLink, cfg);
  for (const auto& capture : feed.captures) server.add_ap(capture.pose);
  EXPECT_EQ(server.ap_count(), feed.captures.size());

  Rng rng(12);
  std::size_t fixes = 0;
  Vec2 last{};
  // Interleave: packet p of every AP, then p+1, ...
  for (std::size_t p = 0; p < 6; ++p) {
    for (std::size_t a = 0; a < feed.captures.size(); ++a) {
      const auto fix = server.push(a, feed.captures[a].packets[p], rng);
      if (fix) {
        ++fixes;
        last = fix->raw;
        // Fires exactly when the last AP completes its group.
        EXPECT_EQ(p, 5u);
        EXPECT_EQ(a, feed.captures.size() - 1);
      }
    }
  }
  EXPECT_EQ(fixes, 1u);
  EXPECT_LT(distance(last, {6.0, 3.5}), 3.0);
  // Buffers drained after the round.
  for (std::size_t a = 0; a < server.ap_count(); ++a) {
    EXPECT_EQ(server.buffered(a), 0u);
  }
}

TEST(Streaming, RejectedPacketsNeverBuffer) {
  Feed feed(4);
  StreamingConfig cfg;
  cfg.group_size = 4;
  StreamingLocalizer server(kLink, cfg);
  for (const auto& capture : feed.captures) server.add_ap(capture.pose);

  Rng rng(13);
  CsiPacket bad = feed.captures[0].packets[0];
  bad.csi(0, 0) = cplx(std::numeric_limits<double>::quiet_NaN(), 0.0);
  EXPECT_FALSE(server.push(0, bad, rng).has_value());
  EXPECT_EQ(server.buffered(0), 0u);
  EXPECT_EQ(server.rejected_count(), 1u);
}

TEST(Streaming, IngestScreenUsesTheServerQualityConfig) {
  // One screen config: ingest screens with server.ap.quality, the screen
  // every round's groups pass, so loosening it is not undone at ingest.
  Feed feed(4);
  StreamingConfig cfg;
  cfg.group_size = 4;
  cfg.server.ap.quality.max_antenna_imbalance_db = 40.0;
  StreamingLocalizer server(kLink, cfg);
  for (const auto& capture : feed.captures) server.add_ap(capture.pose);

  Rng rng(16);
  CsiPacket imbalanced = feed.captures[0].packets[0];
  const double gain = std::pow(10.0, 30.0 / 20.0);  // +30 dB on one chain
  for (std::size_t n = 0; n < imbalanced.csi.cols(); ++n) {
    imbalanced.csi(0, n) *= gain;
  }
  ASSERT_FALSE(screen_packet(imbalanced).ok);  // the default 25 dB bound
  EXPECT_FALSE(server.push(0, imbalanced, rng).has_value());
  EXPECT_EQ(server.buffered(0), 1u);
  EXPECT_EQ(server.rejected_count(), 0u);
}

TEST(Streaming, StalePacketsAgeOut) {
  Feed feed(4);
  StreamingConfig cfg;
  cfg.group_size = 2;
  cfg.max_packet_age_s = 1.0;
  StreamingLocalizer server(kLink, cfg);
  for (const auto& capture : feed.captures) server.add_ap(capture.pose);

  Rng rng(14);
  CsiPacket old = feed.captures[0].packets[0];
  old.timestamp_s = 0.0;
  EXPECT_FALSE(server.push(0, old, rng).has_value());
  EXPECT_EQ(server.buffered(0), 1u);
  CsiPacket fresh = feed.captures[0].packets[1];
  fresh.timestamp_s = 5.0;  // far beyond max_packet_age_s
  EXPECT_FALSE(server.push(0, fresh, rng).has_value());
  EXPECT_EQ(server.buffered(0), 1u);  // the stale packet was dropped
}

TEST(Streaming, SuccessiveFixesFeedTracker) {
  Feed feed(12);
  StreamingConfig cfg;
  cfg.group_size = 4;
  cfg.server.localizer.area_min = feed.runner.deployment().area_min;
  cfg.server.localizer.area_max = feed.runner.deployment().area_max;
  StreamingLocalizer server(kLink, cfg);
  for (const auto& capture : feed.captures) server.add_ap(capture.pose);

  Rng rng(15);
  std::size_t fixes = 0;
  for (std::size_t p = 0; p < 12; ++p) {
    for (std::size_t a = 0; a < feed.captures.size(); ++a) {
      if (const auto fix =
              server.push(a, feed.captures[a].packets[p], rng)) {
        ++fixes;
        EXPECT_TRUE(server.tracker().initialized());
        EXPECT_LT(distance(fix->tracked, {6.0, 3.5}), 4.0);
      }
    }
  }
  EXPECT_EQ(fixes, 3u);  // 12 packets / group of 4
}

TEST(Streaming, ContractChecks) {
  StreamingLocalizer server(kLink, {});
  Rng rng(16);
  CsiPacket packet;
  EXPECT_THROW(server.push(0, packet, rng), ContractViolation);
  server.add_ap(ArrayPose{});
  EXPECT_THROW(server.push(0, packet, rng), ContractViolation);  // 1 AP
  EXPECT_THROW((void)server.buffered(5), ContractViolation);
  StreamingConfig bad;
  bad.group_size = 0;
  EXPECT_THROW(StreamingLocalizer(kLink, bad), ContractViolation);
}

TEST(Streaming, UnknownApIdThrowsWithClearMessage) {
  Feed feed(2);
  StreamingLocalizer server(kLink, {});
  for (const auto& capture : feed.captures) server.add_ap(capture.pose);
  Rng rng(17);
  try {
    (void)server.push(7, feed.captures[0].packets[0], rng);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown AP id 7"), std::string::npos) << what;
    EXPECT_NE(what.find("6 APs registered"), std::string::npos) << what;
  }
  // Health accessors share the bounds contract.
  EXPECT_THROW((void)server.ap_health(99), ContractViolation);
  EXPECT_THROW((void)server.ap_state(99), ContractViolation);
}

// --- AP health state machine: property-style interleavings ---

TEST(ApHealthProperty, RandomInterleavingsNeverStickAndAlwaysTrackSilence) {
  // Property: whatever interleaving of packet arrivals and silent time
  // advances an AP experiences, its health is a pure function of its
  // current silence — never a sticky artifact of the path taken. In
  // particular an AP that just delivered a packet at stream time `now`
  // is healthy, no matter how many times it died and recovered before.
  const double kDegradedAfter = 1.0, kDeadAfter = 3.0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Feed feed(2);
    StreamingConfig cfg;
    // Rounds never fire: this test is about the health machine only.
    cfg.group_size = 100000;
    cfg.max_packet_age_s = 1e9;
    cfg.degradation.degraded_after_s = kDegradedAfter;
    cfg.degradation.dead_after_s = kDeadAfter;
    StreamingLocalizer server(kLink, cfg);
    const std::size_t n_aps = feed.captures.size();
    for (const auto& capture : feed.captures) server.add_ap(capture.pose);

    Rng events(1000 + seed);
    Rng packet_rng(2000 + seed);
    double now = 0.0;
    std::vector<double> last_accepted(n_aps,
                                      std::numeric_limits<double>::quiet_NaN());
    std::optional<double> stream_start;
    std::vector<std::size_t> recoveries(n_aps, 0);

    for (int step = 0; step < 200; ++step) {
      const bool is_push = events.uniform() < 0.6;
      // Dead (>= 3 s) and degraded (>= 1 s) silences must both be
      // reachable: jumps up to 2.2 s, so two in a row can kill an AP.
      now += events.uniform(0.0, 2.2);
      if (is_push) {
        const auto ap = static_cast<std::size_t>(events.uniform_index(n_aps));
        // Before the stream starts every AP reads healthy, so this is
        // false there and a true dead -> healthy edge everywhere else.
        const bool was_dead = server.ap_health(ap) == ApHealth::kDead;
        CsiPacket packet = good_packet(packet_rng, now);
        ASSERT_FALSE(server.push(ap, std::move(packet), events).has_value());
        if (!stream_start) stream_start = now;
        last_accepted[ap] = now;
        if (was_dead) ++recoveries[ap];
      } else {
        ASSERT_FALSE(server.poll(now, events).has_value());
      }
      if (!stream_start) continue;
      for (std::size_t a = 0; a < n_aps; ++a) {
        const double last =
            std::isnan(last_accepted[a]) ? *stream_start : last_accepted[a];
        const double silence = now - last;
        ApHealth expected = ApHealth::kHealthy;
        if (silence >= kDeadAfter) {
          expected = ApHealth::kDead;
        } else if (silence >= kDegradedAfter) {
          expected = ApHealth::kDegraded;
        }
        ASSERT_EQ(server.ap_health(a), expected)
            << "seed " << seed << " step " << step << " ap " << a
            << " silence " << silence;
        ASSERT_EQ(server.ap_state(a).recoveries, recoveries[a])
            << "seed " << seed << " step " << step << " ap " << a;
      }
    }
  }
}

// --- overload fidelity ladder through the streaming localizer ---

/// Streaming config sized so one interleaved pass of `packets` packets
/// per AP fires exactly one round.
StreamingConfig one_round_config(const Feed& feed, std::size_t packets) {
  StreamingConfig cfg;
  cfg.group_size = packets;
  cfg.server.localizer.area_min = feed.runner.deployment().area_min;
  cfg.server.localizer.area_max = feed.runner.deployment().area_max;
  return cfg;
}

/// A plan that runs the round at `rung`.
RoundPlan plan_at(ApStage rung) {
  RoundPlan plan;
  plan.level = rung;
  return plan;
}

/// Pushes one interleaved pass of `packets` packets per AP through the
/// deferred lifecycle, every round prepared under `plan`: a round the
/// plan runs goes on through execute_round() and complete_round(); a
/// shed one is appended to `shed` instead. Returns the last fix.
std::optional<LocationFix> plan_one_round(
    StreamingLocalizer& server, const Feed& feed, std::size_t packets,
    Rng& rng, const RoundPlan& plan,
    std::vector<PendingRound>* shed = nullptr) {
  std::optional<LocationFix> fired;
  for (std::size_t p = 0; p < packets; ++p) {
    for (std::size_t a = 0; a < feed.captures.size(); ++a) {
      auto pending =
          server.push_deferred(a, feed.captures[a].packets[p], rng, plan);
      if (!pending) continue;
      if (!pending->plan.run) {
        if (shed != nullptr) shed->push_back(std::move(*pending));
        continue;
      }
      server.execute_round(*pending);
      if (auto fix = server.complete_round(std::move(*pending))) {
        fired = std::move(fix);
      }
    }
  }
  return fired;
}

TEST(OverloadFidelity, ManualEspritFidelityEntersChainAtEsprit) {
  Feed feed(6);
  StreamingLocalizer server(kLink, one_round_config(feed, 6));
  for (const auto& capture : feed.captures) server.add_ap(capture.pose);

  Rng rng(21);
  const auto fix =
      plan_one_round(server, feed, 6, rng, plan_at(ApStage::kEsprit));
  ASSERT_TRUE(fix.has_value());
  EXPECT_EQ(fix->round.fidelity, ApStage::kEsprit);
  EXPECT_TRUE(fix->degraded);
  ASSERT_FALSE(fix->reasons.empty());
  EXPECT_NE(fix->reasons[0].find("overload"), std::string::npos);
  // Every AP entered the fallback chain at ESPRIT — no stage above it.
  for (const ApStage stage : fix->round.ap_stages) {
    EXPECT_GE(stage, ApStage::kEsprit);
  }
  EXPECT_LT(distance(fix->raw, {6.0, 3.5}), 4.0);
}

TEST(OverloadFidelity, RssiOnlyFidelityYieldsBearinglessRound) {
  Feed feed(6);
  StreamingLocalizer server(kLink, one_round_config(feed, 6));
  for (const auto& capture : feed.captures) server.add_ap(capture.pose);

  Rng rng(22);
  const auto fix =
      plan_one_round(server, feed, 6, rng, plan_at(ApStage::kRssiOnly));
  ASSERT_TRUE(fix.has_value());
  EXPECT_EQ(fix->round.fidelity, ApStage::kRssiOnly);
  for (const ApStage stage : fix->round.ap_stages) {
    EXPECT_EQ(stage, ApStage::kRssiOnly);
  }
  for (const auto& result : fix->round.ap_results) {
    EXPECT_FALSE(result.observation.has_aoa);
  }
}

TEST(OverloadFidelity, PlannerShedDropsRoundButDrainsBacklog) {
  Feed feed(6);
  StreamingLocalizer server(kLink, one_round_config(feed, 6));
  for (const auto& capture : feed.captures) server.add_ap(capture.pose);
  RoundPlan plan;
  plan.run = false;
  plan.reason = "test shed";

  Rng rng(23);
  std::vector<PendingRound> shed;
  const auto fix = plan_one_round(server, feed, 6, rng, plan, &shed);
  EXPECT_FALSE(fix.has_value());
  // One round came back shed, with no streams forked.
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_TRUE(shed[0].streams.empty());
  EXPECT_EQ(shed[0].ap_ids.size(), feed.captures.size());
  EXPECT_EQ(server.fix_count(), 0u);
  // A shed round never ran, so it cannot have failed.
  EXPECT_EQ(server.failed_rounds(), 0u);
  // The shed round still consumed its packet groups: backlog drained.
  for (std::size_t a = 0; a < server.ap_count(); ++a) {
    EXPECT_EQ(server.buffered(a), 0u);
  }
}

TEST(OverloadFidelity, PlannerLevelOverridesManualFidelity) {
  Feed feed(6);
  StreamingLocalizer server(kLink, one_round_config(feed, 6));
  for (const auto& capture : feed.captures) server.add_ap(capture.pose);
  RoundPlan plan = plan_at(ApStage::kRelaxedMusic);
  plan.reason = "planner says coarse";

  Rng rng(24);
  const auto fix = plan_one_round(server, feed, 6, rng, plan);
  ASSERT_TRUE(fix.has_value());
  EXPECT_EQ(fix->round.fidelity, ApStage::kRelaxedMusic);
  for (const ApStage stage : fix->round.ap_stages) {
    EXPECT_GE(stage, ApStage::kRelaxedMusic);
  }
}

}  // namespace
}  // namespace spotfi
