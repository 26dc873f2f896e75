// Tests for the SpotFi pipeline core: Eq. 8 clustering/likelihoods, the
// selection rules of Fig. 8(b), the per-AP processor, and the server.
#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.hpp"
#include "common/stats.hpp"
#include "core/server.hpp"
#include "core/tracker.hpp"
#include "testbed/deployment.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();

PathEstimate estimate(double aoa_deg, double tof_ns, double power = 1.0) {
  PathEstimate e;
  e.aoa_rad = deg_to_rad(aoa_deg);
  e.tof_s = tof_ns * 1e-9;
  e.power = power;
  return e;
}

/// Synthetic estimate pool: a tight early cluster (direct) and a loose
/// late one (reflection).
std::vector<PathEstimate> two_cluster_pool(Rng& rng, std::size_t n = 30) {
  std::vector<PathEstimate> pool;
  for (std::size_t i = 0; i < n; ++i) {
    pool.push_back(estimate(20.0 + rng.normal(0.0, 0.4),
                            30.0 + rng.normal(0.0, 1.0), 5.0));
    pool.push_back(estimate(-40.0 + rng.normal(0.0, 6.0),
                            150.0 + rng.normal(0.0, 25.0), 8.0));
  }
  return pool;
}

TEST(DirectPath, TightEarlyClusterWins) {
  Rng rng(1);
  const auto pool = two_cluster_pool(rng);
  DirectPathConfig cfg;
  cfg.n_clusters = 2;
  const auto clusters = cluster_path_estimates(pool, kLink, 30, rng, cfg,
                                               thread_workspace());
  ASSERT_GE(clusters.size(), 2u);
  // Sorted by likelihood: the direct cluster (tight, early) first.
  EXPECT_NEAR(rad_to_deg(clusters[0].mean_aoa_rad), 20.0, 2.0);
  EXPECT_GT(clusters[0].likelihood, clusters[1].likelihood);
}

TEST(DirectPath, ClusterStatisticsAreCorrect) {
  // Two exact points per cluster: check the population statistics.
  std::vector<PathEstimate> pool{
      estimate(10.0, 40.0, 2.0), estimate(14.0, 60.0, 4.0)};
  Rng rng(2);
  DirectPathConfig cfg;
  cfg.n_clusters = 1;
  const auto clusters = cluster_path_estimates(pool, kLink, 30, rng, cfg,
                                               thread_workspace());
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].count, 2u);
  EXPECT_NEAR(rad_to_deg(clusters[0].mean_aoa_rad), 12.0, 1e-6);
  EXPECT_NEAR(clusters[0].mean_tof_s * 1e9, 50.0, 1e-6);
  EXPECT_NEAR(clusters[0].mean_power, 3.0, 1e-9);
  // sigma_aoa: population stddev of normalized +-2 deg around the mean.
  EXPECT_NEAR(clusters[0].sigma_aoa, deg_to_rad(2.0) / (kPi / 2.0), 1e-9);
}

TEST(DirectPath, EmptyPoolThrows) {
  Rng rng(3);
  EXPECT_THROW(
      cluster_path_estimates({}, kLink, 1, rng, {}, thread_workspace()),
      ContractViolation);
}

TEST(DirectPath, KMeansVariantAlsoWorks) {
  Rng rng(4);
  const auto pool = two_cluster_pool(rng);
  DirectPathConfig cfg;
  cfg.n_clusters = 2;
  cfg.use_gmm = false;
  const auto clusters = cluster_path_estimates(pool, kLink, 30, rng, cfg,
                                               thread_workspace());
  ASSERT_GE(clusters.size(), 2u);
  EXPECT_NEAR(rad_to_deg(clusters[0].mean_aoa_rad), 20.0, 2.0);
}

TEST(DirectPath, LikelihoodInvariantToCommonTofShift) {
  // The relative mean-ToF term makes the likelihood ranking invariant to
  // the arbitrary sanitization origin.
  Rng rng(5);
  auto pool = two_cluster_pool(rng);
  DirectPathConfig cfg;
  cfg.n_clusters = 2;
  Rng r1(6), r2(6);
  const auto base =
      cluster_path_estimates(pool, kLink, 30, r1, cfg, thread_workspace());
  for (auto& e : pool) e.tof_s -= 200e-9;  // shift all ToFs
  const auto shifted =
      cluster_path_estimates(pool, kLink, 30, r2, cfg, thread_workspace());
  ASSERT_EQ(base.size(), shifted.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(base[i].likelihood, shifted[i].likelihood,
                1e-6 * base[i].likelihood);
  }
}

TEST(Selection, RulesPickTheRightClusters) {
  std::vector<ClusterSummary> clusters(3);
  clusters[0].mean_aoa_rad = deg_to_rad(10.0);
  clusters[0].mean_tof_s = 50e-9;
  clusters[0].mean_power = 3.0;
  clusters[0].likelihood = 0.5;
  clusters[1].mean_aoa_rad = deg_to_rad(-30.0);
  clusters[1].mean_tof_s = 20e-9;  // earliest
  clusters[1].mean_power = 1.0;
  clusters[1].likelihood = 2.0;  // highest likelihood
  clusters[2].mean_aoa_rad = deg_to_rad(60.0);
  clusters[2].mean_tof_s = 90e-9;
  clusters[2].mean_power = 9.0;  // strongest
  clusters[2].likelihood = 1.0;

  EXPECT_EQ(select_spotfi(clusters), 1u);
  EXPECT_EQ(select_smallest_tof(clusters), 1u);
  EXPECT_EQ(select_strongest(clusters), 2u);
  EXPECT_EQ(select_oracle(clusters, deg_to_rad(55.0)), 2u);
  EXPECT_EQ(select_oracle(clusters, deg_to_rad(5.0)), 0u);
}

TEST(Selection, EmptyClustersThrow) {
  EXPECT_THROW((void)select_spotfi({}), ContractViolation);
  EXPECT_THROW((void)select_smallest_tof({}), ContractViolation);
  EXPECT_THROW((void)select_strongest({}), ContractViolation);
  EXPECT_THROW((void)select_oracle({}, 0.0), ContractViolation);
}

// --- ApProcessor on synthesized captures ---

TEST(ApProcessor, RecoversDirectPathOnCleanLink) {
  // Free-space link: the only path is direct; the processor must select
  // an AoA close to the geometric truth.
  FloorPlan plan;
  const ArrayPose pose{{0.0, 0.0}, 0.0};
  const Vec2 target{8.0, 2.0};
  MultipathConfig mp;
  const auto paths = enumerate_paths(plan, {}, pose, target, mp);
  ImpairmentConfig imp;
  const CsiSynthesizer synth(kLink, imp);
  Rng rng(7);
  const auto packets = synth.synthesize_burst(paths, 10, 0.1, rng);

  const ApProcessor processor(kLink, pose, {});
  const ApOutcome outcome = processor.process_robust(packets, rng);
  ASSERT_EQ(outcome.stage, ApStage::kPrimary) << outcome.note;
  const ApResult& result = outcome.result;
  EXPECT_NEAR(rad_to_deg(result.observation.direct_aoa_rad),
              rad_to_deg(pose.aoa_of(target)), 3.0);
  EXPECT_GT(result.observation.likelihood, 0.0);
  EXPECT_FALSE(result.pooled_estimates.empty());
  EXPECT_FALSE(result.clusters.empty());
}

TEST(ApProcessor, RssiIsAveraged) {
  FloorPlan plan;
  const ArrayPose pose{{0.0, 0.0}, 0.0};
  MultipathConfig mp;
  const auto paths = enumerate_paths(plan, {}, pose, {5.0, 1.0}, mp);
  ImpairmentConfig imp;
  imp.rssi_shadowing_db = 0.0;
  const CsiSynthesizer synth(kLink, imp);
  Rng rng(8);
  const auto packets = synth.synthesize_burst(paths, 5, 0.1, rng);
  const ApProcessor processor(kLink, pose, {});
  const ApOutcome outcome = processor.process_robust(packets, rng);
  ASSERT_EQ(outcome.stage, ApStage::kPrimary) << outcome.note;
  EXPECT_NEAR(outcome.result.observation.rssi_dbm, packets[0].rssi_dbm,
              1e-9);
}

TEST(ApProcessor, EmptyGroupThrows) {
  const ApProcessor processor(kLink, ArrayPose{}, {});
  Rng rng(9);
  EXPECT_THROW((void)processor.process_robust({}, rng), ContractViolation);
}

// --- server end to end ---

TEST(Server, LocalizesCleanOfficeTarget) {
  const Deployment deployment = office_deployment();
  const Vec2 target{8.0, 5.5};
  MultipathConfig mp;
  ImpairmentConfig imp;
  const CsiSynthesizer synth(kLink, imp);
  Rng rng(10);
  std::vector<ApCapture> captures;
  for (const auto& pose : deployment.aps) {
    const auto paths = enumerate_paths(deployment.plan,
                                       deployment.scatterers, pose, target,
                                       mp);
    ApCapture c;
    c.pose = pose;
    Rng fork = rng.fork();
    c.packets = synth.synthesize_burst(paths, 12, 0.1, fork);
    captures.push_back(std::move(c));
  }
  ServerConfig config;
  config.localizer.area_min = deployment.area_min;
  config.localizer.area_max = deployment.area_max;
  const SpotFiServer server(kLink, config);
  const auto round = server.try_localize(captures, rng);
  ASSERT_TRUE(round.has_value()) << round.error().reason;
  EXPECT_EQ(round->ap_results.size(), deployment.aps.size());
  EXPECT_LT(distance(round->location.position, target), 2.5);
}

TEST(Server, RequiresTwoAps) {
  const SpotFiServer server(kLink, {});
  std::vector<ApCapture> captures(1);
  Rng rng(11);
  const RngState before = rng.state();
  const auto round = server.try_localize(captures, rng);
  ASSERT_FALSE(round.has_value());
  EXPECT_EQ(round.error().reason, "need at least two AP captures");
  EXPECT_EQ(round.error().usable_aps, 0u);
  // The round failed without consuming randomness...
  EXPECT_EQ(rng.state().s, before.s);
  // ...and the forked entry point fails the same way on the (empty)
  // stream set the fork rule gives one capture.
  std::vector<Rng> streams = fork_round_streams(rng, captures.size());
  EXPECT_TRUE(streams.empty());
  EXPECT_EQ(rng.state().s, before.s);
  const auto forked = server.try_localize_forked(captures, streams);
  ASSERT_FALSE(forked.has_value());
  EXPECT_EQ(forked.error().reason, "need at least two AP captures");
  EXPECT_EQ(forked.error().usable_aps, 0u);
}

// --- location tracker ---

TEST(Tracker, FirstFixInitializes) {
  LocationTracker tracker;
  EXPECT_FALSE(tracker.initialized());
  const Vec2 out = tracker.update({3.0, 4.0}, 0.0);
  EXPECT_TRUE(tracker.initialized());
  EXPECT_EQ(out, (Vec2{3.0, 4.0}));
  EXPECT_EQ(tracker.velocity(), (Vec2{0.0, 0.0}));
}

TEST(Tracker, ConvergesToConstantVelocityTrack) {
  // Low process noise: the filter knows the target moves smoothly.
  TrackerConfig cfg;
  cfg.acceleration_sigma = 0.2;
  LocationTracker tracker(cfg);
  Rng rng(20);
  // Truth: start (0,0), velocity (1.0, 0.5) m/s; noisy fixes every 1 s.
  for (int i = 0; i <= 30; ++i) {
    const double t = static_cast<double>(i);
    const Vec2 truth{1.0 * t, 0.5 * t};
    tracker.update({truth.x + rng.normal(0.0, 0.5),
                    truth.y + rng.normal(0.0, 0.5)},
                   t);
  }
  EXPECT_NEAR(tracker.velocity().x, 1.0, 0.15);
  EXPECT_NEAR(tracker.velocity().y, 0.5, 0.15);
  EXPECT_LT(distance(tracker.position(), {30.0, 15.0}), 0.6);
}

TEST(Tracker, SmoothsNoiseBelowRawFixes) {
  // Filtered error variance must beat the raw measurement variance for a
  // static target after burn-in (low process noise: near-static model).
  TrackerConfig cfg;
  cfg.acceleration_sigma = 0.1;
  LocationTracker tracker(cfg);
  Rng rng(21);
  const Vec2 truth{5.0, 5.0};
  RunningStats raw_err, filt_err;
  for (int i = 0; i <= 60; ++i) {
    const Vec2 fix{truth.x + rng.normal(0.0, 0.8),
                   truth.y + rng.normal(0.0, 0.8)};
    const Vec2 filtered = tracker.update(fix, static_cast<double>(i));
    if (i >= 10) {
      raw_err.add(distance(fix, truth));
      filt_err.add(distance(filtered, truth));
    }
  }
  EXPECT_LT(filt_err.mean(), 0.7 * raw_err.mean());
}

TEST(Tracker, GateRejectsGrossOutlier) {
  LocationTracker tracker;
  for (int i = 0; i < 10; ++i) {
    tracker.update({1.0, 1.0}, static_cast<double>(i));
  }
  const Vec2 before = tracker.position();
  const Vec2 out = tracker.update({15.0, -12.0}, 10.0);  // absurd jump
  EXPECT_TRUE(tracker.last_fix_rejected());
  EXPECT_LT(distance(out, before), 0.5);
}

TEST(Tracker, GateCanBeDisabled) {
  TrackerConfig cfg;
  cfg.gate_nis = 0.0;
  LocationTracker tracker(cfg);
  for (int i = 0; i < 10; ++i) {
    tracker.update({1.0, 1.0}, static_cast<double>(i));
  }
  tracker.update({15.0, -12.0}, 10.0);
  EXPECT_FALSE(tracker.last_fix_rejected());
  EXPECT_GT(distance(tracker.position(), {1.0, 1.0}), 1.0);
}

TEST(Tracker, PredictExtrapolatesVelocity) {
  LocationTracker tracker;
  for (int i = 0; i <= 20; ++i) {
    const double t = static_cast<double>(i);
    tracker.update({2.0 * t, 0.0}, t);
  }
  const Vec2 ahead = tracker.predict(25.0);
  EXPECT_NEAR(ahead.x, 50.0, 2.0);
  EXPECT_NEAR(ahead.y, 0.0, 0.5);
}

TEST(Tracker, ContractViolations) {
  LocationTracker tracker;
  EXPECT_THROW((void)tracker.position(), ContractViolation);
  EXPECT_THROW((void)tracker.predict(1.0), ContractViolation);
  tracker.update({0.0, 0.0}, 5.0);
  EXPECT_THROW(tracker.update({0.0, 0.0}, 4.0), ContractViolation);
  EXPECT_THROW((void)tracker.predict(4.0), ContractViolation);
  TrackerConfig bad;
  bad.measurement_sigma = 0.0;
  EXPECT_THROW(LocationTracker{bad}, ContractViolation);
}

}  // namespace
}  // namespace spotfi
