// Degenerate-input stress suite: drives the fault-tolerant pipeline with
// every NumericalFaultKind and asserts graceful degradation — try_localize
// either returns a finite location (with the degradation recorded in its
// notes/numerics telemetry) or a RoundError with a reason; it never throws
// and never emits a non-finite coordinate.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "channel/faults.hpp"
#include "common/constants.hpp"
#include "core/server.hpp"
#include "linalg/hermitian_eig.hpp"
#include "linalg/numerics.hpp"
#include "localize/spotfi_localizer.hpp"
#include "testbed/deployment.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();

/// Clean office-deployment captures of `target`, one burst per AP.
std::vector<ApCapture> office_captures(const Deployment& deployment,
                                       Vec2 target, Rng& rng,
                                       std::size_t n_packets = 10) {
  MultipathConfig mp;
  ImpairmentConfig imp;
  const CsiSynthesizer synth(kLink, imp);
  std::vector<ApCapture> captures;
  for (const auto& pose : deployment.aps) {
    const auto paths = enumerate_paths(deployment.plan, deployment.scatterers,
                                       pose, target, mp);
    ApCapture c;
    c.pose = pose;
    Rng fork = rng.fork();
    c.packets = synth.synthesize_burst(paths, n_packets, 0.1, fork);
    captures.push_back(std::move(c));
  }
  return captures;
}

ServerConfig office_config(const Deployment& deployment) {
  ServerConfig config;
  config.localizer.area_min = deployment.area_min;
  config.localizer.area_max = deployment.area_max;
  return config;
}

bool finite_position(const Vec2& p) {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

// The acceptance contract of the suite: for EVERY fault class injected on
// EVERY AP's every packet, the round either localizes to a finite point or
// reports why it could not. No exceptions escape, nothing non-finite.
//
// The rank-deficiency kinds are special: a fully coherent bundle is
// *valid* physics (zero angular spread), and rank-deficient covariances
// are MUSIC's normal operating regime — the pipeline is expected to
// handle them silently on the primary path. Only the value-poisoning
// kinds (NaN/Inf/denormal/huge dynamic range) must leave a trace in the
// round diagnostics when the round still produces a location.
TEST(StressSuite, EveryFaultKindOnAllApsDegradesGracefully) {
  const Deployment deployment = office_deployment();
  const SpotFiServer server(kLink, office_config(deployment));
  for (std::size_t f = 0; f < kNumericalFaultKindCount; ++f) {
    const auto kind = static_cast<NumericalFaultKind>(f);
    SCOPED_TRACE(to_string(kind));
    Rng rng(100 + f);
    auto captures = office_captures(deployment, {8.0, 5.5}, rng);
    for (auto& capture : captures) {
      for (auto& packet : capture.packets) {
        inject_numerical_fault(packet, kind, kLink, rng);
      }
    }
    const auto round = server.try_localize(captures, rng);
    if (round.has_value()) {
      EXPECT_TRUE(finite_position(round->location.position));
      EXPECT_TRUE(std::isfinite(round->location.cost));
      const bool value_poisoning =
          kind != NumericalFaultKind::kRankCollapse &&
          kind != NumericalFaultKind::kNearSingularCovariance;
      if (value_poisoning) {
        EXPECT_TRUE(!round->notes.empty() || round->numerics.any() ||
                    round->degraded)
            << "value fault left no trace in the round diagnostics";
      }
    } else {
      EXPECT_FALSE(round.error().reason.empty());
    }
  }
}

// One poisoned AP among five clean ones must not sink the round: the
// fallback chain (or LOO rejection) contains it and the fix stays finite
// and inside the search area.
TEST(StressSuite, SingleFaultyApIsContained) {
  const Deployment deployment = office_deployment();
  const Vec2 target{8.0, 5.5};
  const SpotFiServer server(kLink, office_config(deployment));
  for (std::size_t f = 0; f < kNumericalFaultKindCount; ++f) {
    const auto kind = static_cast<NumericalFaultKind>(f);
    SCOPED_TRACE(to_string(kind));
    Rng rng(200 + f);
    auto captures = office_captures(deployment, target, rng);
    for (auto& packet : captures[0].packets) {
      inject_numerical_fault(packet, kind, kLink, rng);
    }
    const auto round = server.try_localize(captures, rng);
    ASSERT_TRUE(round.has_value()) << round.error().reason;
    ASSERT_TRUE(finite_position(round->location.position));
    EXPECT_GE(round->location.position.x, deployment.area_min.x - 1.0);
    EXPECT_LE(round->location.position.x, deployment.area_max.x + 1.0);
    EXPECT_GE(round->location.position.y, deployment.area_min.y - 1.0);
    EXPECT_LE(round->location.position.y, deployment.area_max.y + 1.0);
  }
}

// The rank-collapse injector really produces a rank-one CSI matrix — the
// covariance eigh sees exactly one significant eigenvalue, and rcond
// reports the collapse as a diagnostic without failing.
TEST(StressSuite, RankCollapseProducesRankOneCovariance) {
  const Deployment deployment = office_deployment();
  Rng rng(42);
  auto captures = office_captures(deployment, {8.0, 5.5}, rng, 1);
  CsiPacket& packet = captures[0].packets[0];
  inject_numerical_fault(packet, NumericalFaultKind::kRankCollapse, kLink,
                         rng);
  for (const cplx& v : packet.csi.flat()) {
    ASSERT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()));
  }
  Workspace ws;
  const EighResult eig = eigh(packet.csi.gram(), ws);
  EXPECT_TRUE(eig.converged);
  EXPECT_LT(eig.rcond, 1e-10);
  const double top = eig.eigenvalues.back();
  ASSERT_GT(top, 0.0);
  // Every other eigenvalue is negligible against the dominant one.
  for (std::size_t k = 0; k + 1 < eig.eigenvalues.size(); ++k) {
    EXPECT_LT(std::abs(eig.eigenvalues[k]), 1e-8 * top);
  }
}

// Observations no regularization can save: every multi-start seed sees a
// non-finite objective, locate() reports the round as numerically
// unusable instead of silently returning the (0, 0) default.
TEST(StressSuite, LocalizerRejectsAllDivergedStarts) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<ApObservation> obs(3);
  obs[0].pose = {{0.0, 0.0}, 0.0};
  obs[1].pose = {{10.0, 0.0}, kPi};
  obs[2].pose = {{5.0, 8.0}, -kPi / 2.0};
  for (auto& o : obs) {
    o.direct_aoa_rad = 0.1;
    o.rssi_dbm = kNan;  // poisons every residual evaluation
  }
  const SpotFiLocalizer localizer;
  NumericsScope scope;
  EXPECT_THROW((void)localizer.locate(obs), NumericalError);
  EXPECT_GT(scope.counters().localizer_starts_rejected, 0u);
}

TEST(StressSuite, FaultKindNamesAreDistinct) {
  for (std::size_t a = 0; a < kNumericalFaultKindCount; ++a) {
    const std::string name = to_string(static_cast<NumericalFaultKind>(a));
    EXPECT_FALSE(name.empty());
    for (std::size_t b = a + 1; b < kNumericalFaultKindCount; ++b) {
      EXPECT_NE(name, to_string(static_cast<NumericalFaultKind>(b)));
    }
  }
}

}  // namespace
}  // namespace spotfi
