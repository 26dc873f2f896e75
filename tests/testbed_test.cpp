// Tests for the testbed: deployment geometry invariants and the
// experiment runner (capture simulation, ground truth bookkeeping, and
// the end-to-end SpotFi + baseline paths).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "common/angles.hpp"
#include "testbed/experiment.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();

// One deployment under test. PrintTo gives the case its deployment name,
// which ctest shows as the test name suffix; printing a bare function
// pointer would name the case after its load address, a different name
// on every build.
struct DeploymentCase {
  const char* name;
  Deployment (*make)();
};

void PrintTo(const DeploymentCase& c, std::ostream* os) { *os << c.name; }

class DeploymentInvariants : public ::testing::TestWithParam<DeploymentCase> {};

TEST_P(DeploymentInvariants, GeometryIsWellFormed) {
  const Deployment d = GetParam().make();
  EXPECT_FALSE(d.name.empty());
  EXPECT_EQ(d.name, GetParam().name);
  EXPECT_GE(d.aps.size(), 2u);
  EXPECT_GE(d.targets.size(), 20u);
  EXPECT_GT(d.plan.wall_count(), 3u);
  // Targets and APs inside the area.
  for (const Vec2 t : d.targets) {
    EXPECT_GE(t.x, d.area_min.x);
    EXPECT_LE(t.x, d.area_max.x);
    EXPECT_GE(t.y, d.area_min.y);
    EXPECT_LE(t.y, d.area_max.y);
  }
  for (const auto& ap : d.aps) {
    EXPECT_GE(ap.position.x, d.area_min.x);
    EXPECT_LE(ap.position.x, d.area_max.x);
  }
  // The ULA aliases back-field sources onto the front half; the apparent
  // AoA is always within [-90, 90] and most APs should genuinely face
  // each target (front-field) so triangulation has usable geometry.
  for (const Vec2 t : d.targets) {
    std::size_t in_front = 0;
    for (const auto& ap : d.aps) {
      EXPECT_LE(std::abs(rad_to_deg(ap.apparent_aoa_of(t))), 90.0);
      if (std::abs(ap.aoa_of(t)) < kPi / 2.0) ++in_front;
    }
    // Triangulation needs at least two genuine front-field bearings.
    EXPECT_GE(in_front, 2u)
        << d.name << " target (" << t.x << "," << t.y << ")";
  }
  // Multipath enumeration works for every (AP, target) pair.
  MultipathConfig mp;
  for (const auto& ap : d.aps) {
    const auto paths = enumerate_paths(d.plan, d.scatterers, ap,
                                       d.targets.front(), mp);
    EXPECT_FALSE(paths.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDeployments, DeploymentInvariants,
    ::testing::Values(DeploymentCase{"office", &office_deployment},
                      DeploymentCase{"high-nlos", &high_nlos_deployment},
                      DeploymentCase{"corridor", &corridor_deployment}));

TEST(Deployment, OfficeMatchesPaperScale) {
  const Deployment d = office_deployment();
  EXPECT_EQ(d.aps.size(), 6u);
  EXPECT_NEAR(d.area_max.x - d.area_min.x, 16.0, 1e-9);
  EXPECT_NEAR(d.area_max.y - d.area_min.y, 10.0, 1e-9);
  EXPECT_GE(d.targets.size(), 25u);
}

TEST(Deployment, HighNlosHas23ObstructedTargets) {
  const Deployment d = high_nlos_deployment();
  EXPECT_EQ(d.targets.size(), 23u);
  // The scenario premise: every target sees at most 2 APs in LoS.
  for (const Vec2 t : d.targets) {
    EXPECT_LE(count_los_aps(d, t), 2u);
  }
}

TEST(Deployment, CorridorHas25Targets) {
  const Deployment d = corridor_deployment();
  EXPECT_EQ(d.targets.size(), 25u);
}

TEST(Deployment, LosHelpers) {
  const Deployment d = high_nlos_deployment();
  EXPECT_THROW((void)is_los(d, d.aps.size(), {1.0, 1.0}), ContractViolation);
  // A target inside a room is NLoS to the far bottom APs.
  EXPECT_FALSE(is_los(d, 2, {8.0, 8.0}));
}

TEST(ExperimentRunner, CapturesHaveExpectedShape) {
  ExperimentConfig config;
  config.packets_per_group = 5;
  const ExperimentRunner runner(kLink, office_deployment(), config);
  Rng rng(1);
  const auto captures = runner.simulate_captures({6.0, 3.5}, rng);
  ASSERT_EQ(captures.size(), 6u);
  for (const auto& c : captures) {
    ASSERT_EQ(c.packets.size(), 5u);
    for (const auto& p : c.packets) {
      EXPECT_EQ(p.csi.rows(), kLink.n_antennas);
      EXPECT_EQ(p.csi.cols(), kLink.n_subcarriers);
      EXPECT_LT(p.rssi_dbm, 0.0);  // realistic dBm range
      EXPECT_GT(p.rssi_dbm, -100.0);
    }
  }
}

TEST(ExperimentRunner, ApSubsetIsHonored) {
  ExperimentConfig config;
  config.packets_per_group = 3;
  config.ap_indices = {0, 2, 4};
  const ExperimentRunner runner(kLink, office_deployment(), config);
  EXPECT_EQ(runner.used_aps().size(), 3u);
  Rng rng(2);
  EXPECT_EQ(runner.simulate_captures({6.0, 3.5}, rng).size(), 3u);
  EXPECT_EQ(runner.ground_truth({6.0, 3.5}).size(), 3u);
}

TEST(ExperimentRunner, InvalidApIndexThrows) {
  ExperimentConfig config;
  config.ap_indices = {17};
  EXPECT_THROW(ExperimentRunner(kLink, office_deployment(), config),
               ContractViolation);
}

TEST(ExperimentRunner, GroundTruthMatchesGeometry) {
  const Deployment d = office_deployment();
  ExperimentConfig config;
  const ExperimentRunner runner(kLink, d, config);
  const Vec2 target{6.0, 3.5};
  const auto truth = runner.ground_truth(target);
  ASSERT_EQ(truth.size(), d.aps.size());
  for (std::size_t a = 0; a < truth.size(); ++a) {
    EXPECT_NEAR(truth[a].direct_aoa_rad, d.aps[a].apparent_aoa_of(target),
                1e-12);
    EXPECT_EQ(truth[a].line_of_sight,
              d.plan.line_of_sight(d.aps[a].position, target));
  }
}

TEST(ExperimentRunner, RunTargetProducesBoundedError) {
  ExperimentConfig config;
  config.packets_per_group = 10;
  const ExperimentRunner runner(kLink, office_deployment(), config);
  Rng rng(3);
  const TargetRun run = runner.run_target({8.0, 5.5}, rng);
  EXPECT_EQ(run.truth, (Vec2{8.0, 5.5}));
  EXPECT_GE(run.error_m, 0.0);
  EXPECT_LT(run.error_m, 8.0);  // sanity: inside the room scale
  EXPECT_EQ(run.captures.size(), 6u);
  EXPECT_EQ(run.ap_truth.size(), 6u);
}

TEST(ExperimentRunner, ArrayTrackBaselineRuns) {
  ExperimentConfig config;
  config.packets_per_group = 6;
  const ExperimentRunner runner(kLink, office_deployment(), config);
  Rng rng(4);
  const auto captures = runner.simulate_captures({8.0, 5.5}, rng);
  const Vec2 est = runner.arraytrack_baseline(captures);
  EXPECT_LT(distance(est, {8.0, 5.5}), 8.0);
}

TEST(ExperimentRunner, ErrorSeriesExtracts) {
  std::vector<TargetRun> runs(3);
  runs[0].error_m = 0.5;
  runs[1].error_m = 1.5;
  runs[2].error_m = 2.5;
  const auto errors = error_series(runs);
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_DOUBLE_EQ(errors[1], 1.5);
}

TEST(ExperimentRunner, DeterministicForSameSeed) {
  ExperimentConfig config;
  config.packets_per_group = 5;
  const ExperimentRunner runner(kLink, office_deployment(), config);
  Rng r1(7), r2(7);
  const TargetRun a = runner.run_target({4.0, 3.5}, r1);
  const TargetRun b = runner.run_target({4.0, 3.5}, r2);
  EXPECT_DOUBLE_EQ(a.error_m, b.error_m);
  EXPECT_EQ(a.round.location.position, b.round.location.position);
}

}  // namespace
}  // namespace spotfi
