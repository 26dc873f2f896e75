// Tests for localization: the path-loss model, the Eq. 9 objective and
// solver (including likelihood weighting and joint path-loss fitting),
// and the baselines (AoA triangulation, RSSI trilateration, ArrayTrack
// spectrum fusion).
#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.hpp"
#include "localize/baselines.hpp"
#include "localize/spotfi_localizer.hpp"

namespace spotfi {
namespace {

TEST(PathLoss, FreeSpaceSlope) {
  PathLossModel model;
  model.p0_dbm = -40.0;
  model.exponent = 2.0;
  EXPECT_DOUBLE_EQ(model.rssi_dbm(1.0), -40.0);
  EXPECT_NEAR(model.rssi_dbm(10.0), -60.0, 1e-12);
  EXPECT_NEAR(model.rssi_dbm(100.0), -80.0, 1e-12);
}

TEST(PathLoss, InverseRoundTrip) {
  PathLossModel model;
  model.p0_dbm = -38.0;
  model.exponent = 2.7;
  for (const double d : {0.5, 1.0, 3.0, 12.0, 40.0}) {
    EXPECT_NEAR(model.distance_m(model.rssi_dbm(d)), d, 1e-9);
  }
}

TEST(PathLoss, ClampsTinyDistances) {
  PathLossModel model;
  EXPECT_DOUBLE_EQ(model.rssi_dbm(0.0), model.rssi_dbm(0.05));
}

/// Builds consistent observations for a target with the given model; APs
/// surround a 16x10 area.
std::vector<ApObservation> consistent_observations(
    Vec2 target, const PathLossModel& model, double likelihood = 1.0) {
  const Vec2 center{8.0, 5.0};
  std::vector<ApObservation> obs;
  for (const Vec2 pos : {Vec2{1.0, 5.0}, Vec2{15.0, 5.0}, Vec2{8.0, 1.0},
                         Vec2{8.0, 9.0}, Vec2{2.0, 1.0}}) {
    ApObservation o;
    o.pose = ArrayPose{pos, (center - pos).angle()};
    o.direct_aoa_rad = o.pose.aoa_of(target);
    o.rssi_dbm = model.rssi_dbm(distance(pos, target));
    o.likelihood = likelihood;
    obs.push_back(o);
  }
  return obs;
}

TEST(SpotFiLocalizer, ExactObservationsGiveExactLocation) {
  const Vec2 truth{6.0, 3.5};
  PathLossModel model;
  model.p0_dbm = -38.0;
  model.exponent = 2.5;
  const auto obs = consistent_observations(truth, model);
  LocalizerConfig cfg;
  cfg.area_max = {16.0, 10.0};
  const SpotFiLocalizer localizer(cfg);
  const LocationEstimate est = localizer.locate(obs);
  EXPECT_NEAR(est.position.x, truth.x, 0.05);
  EXPECT_NEAR(est.position.y, truth.y, 0.05);
  EXPECT_LT(est.cost, 1e-3);
}

TEST(SpotFiLocalizer, FitsPathLossParametersJointly) {
  // Observations generated with an unusual exponent; Algorithm 2
  // optimizes the model parameters along with the location.
  const Vec2 truth{10.0, 6.0};
  PathLossModel model;
  model.p0_dbm = -45.0;
  model.exponent = 3.2;
  const auto obs = consistent_observations(truth, model);
  LocalizerConfig cfg;
  cfg.area_max = {16.0, 10.0};
  const SpotFiLocalizer localizer(cfg);
  const LocationEstimate est = localizer.locate(obs);
  EXPECT_NEAR(est.position.x, truth.x, 0.1);
  EXPECT_NEAR(est.position.y, truth.y, 0.1);
  EXPECT_NEAR(est.path_loss.exponent, 3.2, 0.4);
  EXPECT_NEAR(est.path_loss.p0_dbm, -45.0, 2.0);
}

TEST(SpotFiLocalizer, ReferenceDistanceIsHonoured) {
  // Exact observations from a model with d0 = 2 m. The path-loss fit must
  // regress on log10(d / d0), the form rssi_dbm predicts with; regressing
  // on log10(d) biases every RSSI residual and moves the fix.
  const Vec2 truth{10.0, 6.0};
  PathLossModel model;
  model.p0_dbm = -45.0;
  model.exponent = 3.2;
  model.d0_m = 2.0;
  auto obs = consistent_observations(truth, model);
  LocalizerConfig cfg;
  cfg.area_max = {16.0, 10.0};
  cfg.initial_path_loss.d0_m = 2.0;
  const SpotFiLocalizer localizer(cfg);
  const LocationEstimate est = localizer.locate(obs);
  EXPECT_NEAR(est.position.x, truth.x, 1e-6);
  EXPECT_NEAR(est.position.y, truth.y, 1e-6);
  EXPECT_LT(est.cost, 1e-12);
  EXPECT_NEAR(est.path_loss.p0_dbm, -45.0, 1e-6);
  EXPECT_NEAR(est.path_loss.exponent, 3.2, 1e-6);
  EXPECT_EQ(est.path_loss.d0_m, 2.0);

  // The range constraints alone must land on the truth too.
  for (auto& o : obs) o.has_aoa = false;
  const LocationEstimate rssi_only = localizer.locate(obs);
  EXPECT_NEAR(rssi_only.position.x, truth.x, 1e-3);
  EXPECT_NEAR(rssi_only.position.y, truth.y, 1e-3);
  EXPECT_NEAR(rssi_only.path_loss.exponent, 3.2, 1e-3);
}

TEST(SpotFiLocalizer, LikelihoodDownWeightsBadAp) {
  const Vec2 truth{6.0, 3.5};
  PathLossModel model;
  auto obs = consistent_observations(truth, model, 3.0);
  // Corrupt one AP's AoA badly but give it a low likelihood.
  obs[2].direct_aoa_rad += deg_to_rad(50.0);
  obs[2].likelihood = 0.1;
  LocalizerConfig cfg;
  cfg.area_max = {16.0, 10.0};
  const SpotFiLocalizer localizer(cfg);
  const LocationEstimate est = localizer.locate(obs);
  EXPECT_NEAR(est.position.x, truth.x, 0.3);
  EXPECT_NEAR(est.position.y, truth.y, 0.3);
}

TEST(SpotFiLocalizer, ZeroLikelihoodApsIgnored) {
  const Vec2 truth{4.0, 4.0};
  PathLossModel model;
  auto obs = consistent_observations(truth, model);
  obs[0].likelihood = 0.0;
  obs[0].direct_aoa_rad = deg_to_rad(90.0);  // garbage, must be ignored
  LocalizerConfig cfg;
  cfg.area_max = {16.0, 10.0};
  const SpotFiLocalizer localizer(cfg);
  const LocationEstimate est = localizer.locate(obs);
  EXPECT_NEAR(est.position.x, truth.x, 0.2);
  EXPECT_NEAR(est.position.y, truth.y, 0.2);
}

TEST(SpotFiLocalizer, TooFewObservationsThrow) {
  const SpotFiLocalizer localizer;
  std::vector<ApObservation> obs(1);
  EXPECT_THROW((void)localizer.locate(obs), ContractViolation);
  std::vector<ApObservation> two(2);
  two[0].likelihood = 0.0;  // only one usable
  EXPECT_THROW((void)localizer.locate(two), ContractViolation);
}

TEST(SpotFiLocalizer, ObjectiveIsZeroAtTruthWithTrueModel) {
  const Vec2 truth{6.0, 3.5};
  PathLossModel model;
  const auto obs = consistent_observations(truth, model);
  const SpotFiLocalizer localizer;
  EXPECT_NEAR(localizer.objective(obs, truth, model), 0.0, 1e-12);
  EXPECT_GT(localizer.objective(obs, {1.0, 9.0}, model), 1.0);
}

TEST(SpotFiLocalizer, EstimateClampedToArea) {
  // Two APs with parallel bearings pointing out of the area.
  std::vector<ApObservation> obs(2);
  obs[0].pose = ArrayPose{{0.0, 0.0}, 0.0};
  obs[1].pose = ArrayPose{{0.0, 5.0}, 0.0};
  obs[0].direct_aoa_rad = obs[1].direct_aoa_rad = 0.0;
  obs[0].rssi_dbm = obs[1].rssi_dbm = -80.0;  // very far
  LocalizerConfig cfg;
  cfg.area_min = {0.0, 0.0};
  cfg.area_max = {10.0, 10.0};
  const SpotFiLocalizer localizer(cfg);
  const LocationEstimate est = localizer.locate(obs);
  EXPECT_LE(est.position.x, 10.0 + 1e-9);
  EXPECT_GE(est.position.x, -1e-9);
}

TEST(SpotFiLocalizer, InvalidConfigThrows) {
  LocalizerConfig cfg;
  cfg.area_max = cfg.area_min;
  EXPECT_THROW(SpotFiLocalizer{cfg}, ContractViolation);
  LocalizerConfig bad_exp;
  bad_exp.min_exponent = 3.0;
  bad_exp.max_exponent = 2.0;
  EXPECT_THROW(SpotFiLocalizer{bad_exp}, ContractViolation);
  LocalizerConfig bad_d0;
  bad_d0.initial_path_loss.d0_m = 0.0;
  EXPECT_THROW(SpotFiLocalizer{bad_d0}, ContractViolation);
}

// --- baselines ---

TEST(Triangulation, TwoPerpendicularBearings) {
  std::vector<ApObservation> obs(2);
  obs[0].pose = ArrayPose{{0.0, 0.0}, 0.0};            // looks +x
  obs[1].pose = ArrayPose{{5.0, -5.0}, kPi / 2.0};     // looks +y
  const Vec2 truth{5.0, 0.0};
  obs[0].direct_aoa_rad = obs[0].pose.aoa_of(truth);
  obs[1].direct_aoa_rad = obs[1].pose.aoa_of(truth);
  obs[0].likelihood = obs[1].likelihood = 1.0;
  const Vec2 est = triangulate_aoa(obs);
  EXPECT_NEAR(est.x, truth.x, 1e-9);
  EXPECT_NEAR(est.y, truth.y, 1e-9);
}

TEST(Triangulation, WeightsFavorConfidentAps) {
  // Three APs; one has a wrong bearing but tiny weight.
  const Vec2 truth{4.0, 4.0};
  std::vector<ApObservation> obs(3);
  obs[0].pose = ArrayPose{{0.0, 0.0}, 0.0};
  obs[1].pose = ArrayPose{{0.0, 8.0}, 0.0};
  obs[2].pose = ArrayPose{{8.0, 0.0}, kPi};
  for (int i = 0; i < 3; ++i) {
    obs[i].direct_aoa_rad = obs[i].pose.aoa_of(truth);
    obs[i].likelihood = 1.0;
  }
  obs[2].direct_aoa_rad += deg_to_rad(30.0);
  obs[2].likelihood = 0.01;
  const Vec2 est = triangulate_aoa(obs);
  EXPECT_NEAR(est.x, truth.x, 0.15);
  EXPECT_NEAR(est.y, truth.y, 0.15);
}

TEST(Triangulation, DegenerateParallelBearingsThrow) {
  std::vector<ApObservation> obs(2);
  obs[0].pose = ArrayPose{{0.0, 0.0}, 0.0};
  obs[1].pose = ArrayPose{{0.0, 5.0}, 0.0};
  obs[0].direct_aoa_rad = obs[1].direct_aoa_rad = 0.0;  // both look +x
  obs[0].likelihood = obs[1].likelihood = 1.0;
  EXPECT_THROW((void)triangulate_aoa(obs), NumericalError);
}

TEST(Trilateration, ExactRangesRecoverLocation) {
  const Vec2 truth{3.0, 7.0};
  PathLossModel model;
  RssiTrilaterationConfig cfg;
  cfg.path_loss = model;
  std::vector<ApObservation> obs(4);
  const Vec2 positions[] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0},
                            {10.0, 10.0}};
  for (int i = 0; i < 4; ++i) {
    obs[i].pose = ArrayPose{positions[i], 0.0};
    obs[i].rssi_dbm = model.rssi_dbm(distance(positions[i], truth));
  }
  const Vec2 est = trilaterate_rssi(obs, cfg);
  EXPECT_NEAR(est.x, truth.x, 0.05);
  EXPECT_NEAR(est.y, truth.y, 0.05);
}

TEST(Trilateration, RequiresThreeAps) {
  std::vector<ApObservation> obs(2);
  EXPECT_THROW((void)trilaterate_rssi(obs), ContractViolation);
}

TEST(SpectrumAt, InterpolatesAndClamps) {
  AoaSpectrum sp;
  sp.aoa_grid_rad = {0.0, 1.0, 2.0};
  sp.values = {10.0, 20.0, 40.0};
  EXPECT_DOUBLE_EQ(spectrum_at(sp, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(spectrum_at(sp, 1.5), 30.0);
  EXPECT_DOUBLE_EQ(spectrum_at(sp, -3.0), 10.0);
  EXPECT_DOUBLE_EQ(spectrum_at(sp, 9.0), 40.0);
}

TEST(ArrayTrackLocate, PeaksAtBearingIntersection) {
  // Two APs with synthetic spectra peaked at the bearings of the truth.
  const Vec2 truth{5.0, 5.0};
  std::vector<ApSpectrum> spectra(2);
  spectra[0].pose = ArrayPose{{0.0, 0.0}, kPi / 4.0};
  spectra[1].pose = ArrayPose{{10.0, 0.0}, 3.0 * kPi / 4.0};
  for (auto& ap : spectra) {
    const double peak = ap.pose.aoa_of(truth);
    AoaSpectrum sp;
    for (int i = -90; i <= 90; ++i) {
      const double a = deg_to_rad(i);
      sp.aoa_grid_rad.push_back(a);
      const double d = a - peak;
      sp.values.push_back(1.0 / (d * d + 1e-3));
    }
    ap.spectrum = sp;
  }
  ArrayTrackConfig cfg;
  cfg.area_max = {10.0, 10.0};
  const Vec2 est = arraytrack_locate(spectra, cfg);
  EXPECT_NEAR(est.x, truth.x, 0.2);
  EXPECT_NEAR(est.y, truth.y, 0.2);
}

TEST(ArrayTrackLocate, InvalidConfigThrows) {
  std::vector<ApSpectrum> spectra(2);
  ArrayTrackConfig cfg;
  cfg.grid_step_m = 0.0;
  EXPECT_THROW((void)arraytrack_locate(spectra, cfg), ContractViolation);
}

}  // namespace
}  // namespace spotfi
