// Overload stress suite for the multi-tenant session layer: producers
// offering packets at several times the queues' drain rate while pump
// threads fire rounds concurrently. Run under TSan in CI (the
// overload-stress job) with SPOTFI_THREADS=4.
//
// What must hold under sustained 4x overload:
//  * Bounded memory — every queue's high-water mark stays at or below
//    its configured capacity (the queue never grows, it sheds).
//  * No deadlocks and no lost work — every offered packet is accounted
//    as exactly accepted or shed; every planned round as exactly
//    full/degraded/shed.
//  * Admission never blocks — a producer facing a full queue gets an
//    immediate Shed verdict, not a stall.
//  * Monotone degradation — rising queue depth never upgrades the
//    fidelity entitlement.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/session_manager.hpp"
#include "testbed/deployment.hpp"
#include "testbed/experiment.hpp"

namespace spotfi {
namespace {

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
  [[nodiscard]] std::vector<ArrayPose> poses() const {
    std::vector<ArrayPose> out;
    for (const auto& capture : captures) out.push_back(capture.pose);
    return out;
  }
};

/// A session config tuned for stress throughput: tiny groups, a coarse
/// MUSIC grid, aggressive degrade rungs — the point is round *count*
/// under pressure, not estimation quality.
SessionConfig stress_session(const Feed& feed, std::size_t queue_capacity) {
  SessionConfig cfg;
  cfg.streaming.group_size = 3;
  cfg.streaming.server.localizer.area_min = feed.runner.deployment().area_min;
  cfg.streaming.server.localizer.area_max = feed.runner.deployment().area_max;
  cfg.streaming.server.ap.music.aoa_step_rad *= 4.0;
  cfg.streaming.server.ap.music.tof_step_s *= 4.0;
  cfg.aps = feed.poses();
  cfg.overload.queue_capacity = queue_capacity;
  cfg.overload.degrade_coarse_at = 0.25;
  cfg.overload.degrade_esprit_at = 0.50;
  cfg.overload.degrade_rssi_at = 0.75;
  return cfg;
}

TEST(OverloadStress, FourSessionsAtFourTimesCapacity) {
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kQueueCapacity = 16;
  // 4x overload: each producer offers four queues' worth of packets
  // while its pump drains concurrently.
  constexpr std::size_t kOffersPerSession = 4 * kQueueCapacity;

  Feed feed(4);
  SessionManager manager(kLink);  // SPOTFI_THREADS applies to the pool
  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    SessionConfig cfg = stress_session(feed, kQueueCapacity);
    cfg.seed = 100 + s;
    ids.push_back(manager.open_session(cfg));
  }

  std::atomic<std::size_t> total_fixes{0};
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kSessions; ++s) {
    const SessionId id = ids[s];
    // One producer per session: round-robin the APs, reusing the
    // pre-synthesized packets (admission doesn't care about content).
    threads.emplace_back([&, s, id] {
      std::size_t shed_seen = 0;
      for (std::size_t i = 0; i < kOffersPerSession; ++i) {
        const std::size_t ap = i % feed.captures.size();
        const std::size_t p = (i / feed.captures.size()) % 4;
        const AdmissionVerdict verdict =
            manager.offer(id, ap, feed.captures[ap].packets[p]);
        if (!verdict.admitted()) ++shed_seen;
      }
      (void)shed_seen;
      (void)s;
    });
    // One pump per session, racing its producer.
    threads.emplace_back([&, id] {
      std::size_t drained_quiet = 0;
      while (drained_quiet < 3) {
        const std::size_t fixes = manager.pump(id).size();
        total_fixes.fetch_add(fixes);
        const SessionStats stats = manager.session_stats(id);
        if (stats.offered >= kOffersPerSession) {
          // Producer finished; a final empty drain confirms quiescence.
          ++drained_quiet;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  SessionStats global{};
  for (const SessionId id : ids) {
    const SessionStats stats = manager.session_stats(id);
    // Bounded memory: the queue never grew past its cap.
    EXPECT_LE(stats.queue_high_water, kQueueCapacity) << "session " << id;
    EXPECT_EQ(stats.queue_capacity, kQueueCapacity);
    // Exact packet accounting: offered = accepted + shed, nothing lost.
    EXPECT_EQ(stats.offered, kOffersPerSession) << "session " << id;
    EXPECT_EQ(stats.offered, stats.accepted + stats.shed_packets)
        << "session " << id;
    // Exact round accounting: every planned round ran (full or
    // degraded) or was shed; every run round fixed or failed.
    EXPECT_EQ(stats.fixes + stats.failed_rounds,
              stats.rounds_full + stats.rounds_degraded)
        << "session " << id;
    global.offered += stats.offered;
    global.fixes += stats.fixes;
  }
  EXPECT_EQ(total_fixes.load(), global.fixes);
  // The manager's own aggregate must agree with the per-session sums.
  const SessionStats agg = manager.global_stats();
  EXPECT_EQ(agg.offered, global.offered);
  EXPECT_EQ(agg.fixes, global.fixes);
}

TEST(OverloadStress, AdmissionIsImmediateWhenTheQueueIsFull) {
  // "No round blocks past its deadline waiting for admission": a
  // producer facing a full queue must get its Shed verdict right away —
  // admission is wait-free by construction. With no pump running, every
  // offer past capacity must shed, immediately and forever.
  Feed feed(2);
  SessionConfig cfg = stress_session(feed, 8);
  cfg.streaming.group_size = 1000;  // rounds never fire
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 1;
  SessionManager manager(kLink, mgr_cfg);
  const SessionId id = manager.open_session(cfg);

  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(manager.offer(id, 0, feed.captures[0].packets[0]).admitted());
  }
  for (int i = 0; i < 100; ++i) {
    const AdmissionVerdict verdict =
        manager.offer(id, 0, feed.captures[0].packets[0]);
    EXPECT_EQ(verdict.kind, AdmissionVerdict::Kind::kShed);
    EXPECT_STREQ(verdict.reason, "ingest queue full");
  }
  const SessionStats stats = manager.session_stats(id);
  EXPECT_EQ(stats.shed_packets, 100u);
  EXPECT_EQ(stats.queue_high_water, 8u);
}

TEST(OverloadStress, DegradationIsMonotoneInQueueDepth) {
  // Pure-policy property: deeper queues never entitle higher fidelity,
  // for several rung configurations including degenerate ones.
  const struct {
    double coarse, esprit, rssi;
  } configs[] = {
      {0.50, 0.75, 0.90},
      {0.25, 0.50, 0.75},
      {0.0, 0.0, 0.0},    // always at the bottom rung past depth 0
      {1.0, 1.0, 1.0},    // only a completely full queue degrades
      {0.10, 0.90, 0.90},
  };
  for (const auto& c : configs) {
    OverloadConfig cfg;
    cfg.queue_capacity = 32;
    cfg.degrade_coarse_at = c.coarse;
    cfg.degrade_esprit_at = c.esprit;
    cfg.degrade_rssi_at = c.rssi;
    const OverloadPolicy policy(cfg);
    ApStage prev = ApStage::kPrimary;
    for (std::size_t depth = 0; depth <= cfg.queue_capacity; ++depth) {
      const ApStage level = policy.level_for_depth(depth);
      EXPECT_GE(level, prev) << "depth " << depth;
      const AdmissionVerdict verdict = policy.admit(depth);
      EXPECT_EQ(verdict.level, level);
      EXPECT_EQ(verdict.admitted(), true);  // admit never sheds by itself
      EXPECT_EQ(verdict.kind == AdmissionVerdict::Kind::kDegraded,
                level != ApStage::kPrimary);
      prev = level;
    }
  }
}

}  // namespace
}  // namespace spotfi
