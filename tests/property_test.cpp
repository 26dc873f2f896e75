// Property-style parameterized sweeps across the stack: invariances
// (sanitization vs STO, likelihood vs ToF origin), monotonicities (error
// vs SNR), and closed-form identities checked over parameter grids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "channel/csi_synthesis.hpp"
#include "common/angles.hpp"
#include "common/rng.hpp"
#include "common/spsc_queue.hpp"
#include "csi/sanitize.hpp"
#include "localize/spotfi_localizer.hpp"
#include "music/estimators.hpp"
#include "music/steering.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();

PathComponent path_at(double aoa_deg, double tof_ns, double gain_db = 0.0) {
  PathComponent p;
  p.aoa_rad = deg_to_rad(aoa_deg);
  p.tof_s = tof_ns * 1e-9;
  p.gain_db = gain_db;
  p.is_direct = true;
  return p;
}

// --- sanitization is invariant to the STO, over a sweep of STOs ---

class SanitizeStoSweep : public ::testing::TestWithParam<double> {};

TEST_P(SanitizeStoSweep, SanitizedCsiIndependentOfSto) {
  const double sto_ns = GetParam();
  auto make = [&](double sto) {
    ImpairmentConfig imp;
    imp.sto_base_s = sto;
    imp.sto_jitter_s = 0.0;
    imp.random_common_phase = false;
    imp.quantize_8bit = false;
    imp.noise_floor_dbm = -300.0;
    imp.max_snr_db = 200.0;
    imp.indirect_phase_jitter_rad = 0.0;
    imp.indirect_gain_jitter_db = 0.0;
    imp.indirect_tof_jitter_s = 0.0;
    imp.indirect_aoa_jitter_rad = 0.0;
    const CsiSynthesizer synth(kLink, imp);
    const std::vector<PathComponent> paths{path_at(20.0, 30.0),
                                           path_at(-35.0, 75.0, -6.0)};
    Rng rng(1);
    return sanitize_tof(synth.synthesize(paths, 0.0, rng).csi, kLink).csi;
  };
  const CMatrix reference = make(0.0);
  const CMatrix shifted = make(sto_ns * 1e-9);
  EXPECT_LT((reference - shifted).max_abs(), 1e-6 * reference.max_abs())
      << "STO " << sto_ns << " ns";
}

INSTANTIATE_TEST_SUITE_P(StoSweep, SanitizeStoSweep,
                         ::testing::Values(-120.0, -40.0, 15.0, 60.0, 150.0,
                                           320.0));

// --- estimation error shrinks with SNR ---

TEST(SnrMonotonicity, AoaErrorShrinksWithSnr) {
  auto median_error_at = [&](double snr_db) {
    ImpairmentConfig imp;
    imp.sto_jitter_s = 0.0;
    imp.random_common_phase = false;
    imp.quantize_8bit = false;
    imp.max_snr_db = 200.0;
    imp.noise_floor_dbm = -92.0;
    // Choose path gain so rx power gives the requested SNR.
    PathComponent p = path_at(25.0, 60.0);
    p.gain_db = -92.0 + snr_db - kTxPowerDbm;
    const CsiSynthesizer synth(kLink, imp);
    const JointMusicEstimator estimator(kLink);
    std::vector<double> errors;
    Rng rng(42);
    for (int trial = 0; trial < 12; ++trial) {
      const auto packet =
          synth.synthesize(std::span<const PathComponent>(&p, 1), 0.0, rng);
      const auto estimates = estimator.estimate(packet.csi);
      double best = 90.0;
      for (const auto& e : estimates) {
        best = std::min(best, std::abs(rad_to_deg(e.aoa_rad) - 25.0));
      }
      errors.push_back(best);
    }
    std::sort(errors.begin(), errors.end());
    return errors[errors.size() / 2];
  };
  const double at5 = median_error_at(5.0);
  const double at15 = median_error_at(15.0);
  const double at30 = median_error_at(30.0);
  EXPECT_LE(at30, at15 + 0.25);
  EXPECT_LE(at15, at5 + 0.25);
  EXPECT_LT(at30, 1.0);
}

// --- steering vector identities over a parameter grid ---

struct SteeringCase {
  double aoa_deg;
  double tof_ns;
};

class SteeringSweep : public ::testing::TestWithParam<SteeringCase> {};

TEST_P(SteeringSweep, UnitModulusAndConjugateSymmetry) {
  const auto [aoa_deg, tof_ns] = GetParam();
  const CVector a =
      joint_steering(deg_to_rad(aoa_deg), tof_ns * 1e-9, 2, 15, kLink);
  for (const auto& v : a) EXPECT_NEAR(std::abs(v), 1.0, 1e-12);
  // ||a||^2 = number of virtual sensors.
  double norm_sq = 0.0;
  for (const auto& v : a) norm_sq += std::norm(v);
  EXPECT_NEAR(norm_sq, 30.0, 1e-9);
  // Negating the AoA conjugates the antenna factor.
  const CVector neg =
      joint_steering(deg_to_rad(-aoa_deg), tof_ns * 1e-9, 2, 15, kLink);
  for (std::size_t s = 0; s < 15; ++s) {
    // Same subcarrier, antenna 1: ant factor Phi vs conj(Phi).
    EXPECT_NEAR(std::abs(neg[15 + s] - std::conj(a[15 + s] / a[s]) * a[s]),
                0.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SteeringSweep,
    ::testing::Values(SteeringCase{0.0, 0.0}, SteeringCase{15.0, 40.0},
                      SteeringCase{45.0, 120.0}, SteeringCase{75.0, 300.0},
                      SteeringCase{89.0, 700.0}));

// --- MUSIC spectrum peaks exactly at the true parameters (noiseless) ---

class SpectrumPeakSweep : public ::testing::TestWithParam<SteeringCase> {};

TEST_P(SpectrumPeakSweep, GlobalMaximumAtTruth) {
  const auto [aoa_deg, tof_ns] = GetParam();
  ImpairmentConfig imp;
  imp.sto_base_s = 0.0;
  imp.sto_jitter_s = 0.0;
  imp.random_common_phase = false;
  imp.quantize_8bit = false;
  imp.noise_floor_dbm = -300.0;
  const CsiSynthesizer synth(kLink, imp);
  const auto p = path_at(aoa_deg, tof_ns);
  const CMatrix csi = synth.ideal_csi(std::span<const PathComponent>(&p, 1));
  const JointMusicEstimator estimator(kLink);
  const AoaTofSpectrum sp = estimator.spectrum(csi);

  std::size_t best_i = 0, best_j = 0;
  double best = -1.0;
  for (std::size_t i = 0; i < sp.values.rows(); ++i) {
    for (std::size_t j = 0; j < sp.values.cols(); ++j) {
      if (sp.values(i, j) > best) {
        best = sp.values(i, j);
        best_i = i;
        best_j = j;
      }
    }
  }
  EXPECT_NEAR(rad_to_deg(sp.aoa_grid_rad[best_i]), aoa_deg, 1.0);
  EXPECT_NEAR(sp.tof_grid_s[best_j] * 1e9, tof_ns, 2.6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SpectrumPeakSweep,
    ::testing::Values(SteeringCase{-70.0, 25.0}, SteeringCase{-30.0, 95.0},
                      SteeringCase{0.0, 180.0}, SteeringCase{40.0, 270.0},
                      SteeringCase{70.0, 350.0}));

// --- localizer solves exactly for exact inputs, across geometries ---

class LocalizerGeometrySweep : public ::testing::TestWithParam<Vec2> {};

TEST_P(LocalizerGeometrySweep, ExactRecovery) {
  const Vec2 truth = GetParam();
  PathLossModel model;
  model.p0_dbm = -40.0;
  model.exponent = 2.3;
  std::vector<ApObservation> obs;
  const Vec2 center{8.0, 5.0};
  for (const Vec2 pos : {Vec2{1.0, 1.0}, Vec2{15.0, 1.0}, Vec2{15.0, 9.0},
                         Vec2{1.0, 9.0}, Vec2{8.0, 0.5}}) {
    ApObservation o;
    o.pose = ArrayPose{pos, (center - pos).angle()};
    o.direct_aoa_rad = o.pose.apparent_aoa_of(truth);
    o.rssi_dbm = model.rssi_dbm(distance(pos, truth));
    o.likelihood = 2.0;
    obs.push_back(o);
  }
  LocalizerConfig cfg;
  cfg.area_max = {16.0, 10.0};
  const SpotFiLocalizer localizer(cfg);
  const LocationEstimate est = localizer.locate(obs);
  EXPECT_LT(distance(est.position, truth), 0.1)
      << "target (" << truth.x << ", " << truth.y << ")";
}

INSTANTIATE_TEST_SUITE_P(Grid, LocalizerGeometrySweep,
                         ::testing::Values(Vec2{3.0, 3.0}, Vec2{8.0, 5.0},
                                           Vec2{13.0, 7.0}, Vec2{2.0, 8.0},
                                           Vec2{14.0, 2.0}, Vec2{6.5, 9.0}));

// --- path loss model identities over exponents ---

class PathLossSweep : public ::testing::TestWithParam<double> {};

TEST_P(PathLossSweep, InverseAndSlope) {
  const double exponent = GetParam();
  PathLossModel model;
  model.p0_dbm = -41.0;
  model.exponent = exponent;
  for (const double d : {0.5, 2.0, 7.0, 25.0}) {
    EXPECT_NEAR(model.distance_m(model.rssi_dbm(d)), d, 1e-9);
  }
  // Doubling the distance costs 10*n*log10(2) dB.
  EXPECT_NEAR(model.rssi_dbm(4.0) - model.rssi_dbm(8.0),
              10.0 * exponent * std::log10(2.0), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Exponents, PathLossSweep,
                         ::testing::Values(1.6, 2.0, 2.5, 3.0, 4.0));

// --- quantization noise is bounded over signal levels ---

class QuantizationSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantizationSweep, RelativeErrorBounded) {
  const double gain_db = GetParam();
  ImpairmentConfig imp;
  imp.sto_base_s = 0.0;
  imp.sto_jitter_s = 0.0;
  imp.random_common_phase = false;
  imp.quantize_8bit = true;
  imp.noise_floor_dbm = -300.0;
  imp.max_snr_db = 200.0;
  imp.indirect_phase_jitter_rad = 0.0;
  imp.indirect_gain_jitter_db = 0.0;
  imp.indirect_tof_jitter_s = 0.0;
  imp.indirect_aoa_jitter_rad = 0.0;
  const CsiSynthesizer synth(kLink, imp);
  const auto p = path_at(10.0, 50.0, gain_db);
  Rng rng(3);
  const auto packet =
      synth.synthesize(std::span<const PathComponent>(&p, 1), 0.0, rng);
  const CMatrix ideal =
      synth.ideal_csi(std::span<const PathComponent>(&p, 1));
  // AGC makes quantization error relative, independent of signal level.
  EXPECT_LT((packet.csi - ideal).max_abs(), 0.02 * ideal.max_abs());
}

INSTANTIATE_TEST_SUITE_P(Levels, QuantizationSweep,
                         ::testing::Values(-20.0, -40.0, -60.0, -80.0));

// --- SpscQueue: FIFO across many ring laps, monotone high-water ---
//
// The ring's cursors are *indices*, bounded in [0, slots_.size()) by
// next_index — they wrap with the ring, not with std::size_t, so integer
// overflow is impossible by construction. What CAN go wrong is the ring
// wrap itself (head/tail lapping the storage, the full-vs-empty
// distinction at next(tail) == head) and the producer-side high-water
// bookkeeping. These sweeps hammer exactly those.

class SpscWrapSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpscWrapSweep, FifoSurvivesThousandsOfRingLaps) {
  const std::size_t capacity = GetParam();
  SpscQueue<std::uint64_t> queue(capacity);
  Rng rng(1234 + capacity);
  std::uint64_t next_push = 0;
  std::uint64_t next_pop = 0;
  std::size_t occupancy = 0;  // shadow model of the queue depth
  constexpr std::size_t kOps = 100'000;
  for (std::size_t op = 0; op < kOps; ++op) {
    if (rng.uniform() < 0.55) {
      const bool pushed = queue.try_push(std::uint64_t{next_push});
      // Full and empty must match the shadow model exactly.
      ASSERT_EQ(pushed, occupancy < capacity);
      if (pushed) {
        ++next_push;
        ++occupancy;
      }
    } else {
      const auto popped = queue.try_pop();
      ASSERT_EQ(popped.has_value(), occupancy > 0);
      if (popped) {
        // FIFO: values come back in exactly the order they went in,
        // however many times the ring has lapped its storage.
        ASSERT_EQ(*popped, next_pop);
        ++next_pop;
        --occupancy;
      }
    }
    ASSERT_EQ(queue.size(), occupancy);
    ASSERT_LE(queue.high_water(), capacity);
  }
  // With ~55k pushes through a <=7-slot ring, the cursors lapped the
  // storage thousands of times.
  EXPECT_GT(next_pop, 10 * capacity);
  EXPECT_LE(queue.high_water(), capacity);
}

INSTANTIATE_TEST_SUITE_P(Capacities, SpscWrapSweep,
                         ::testing::Values(1, 2, 3, 7));

TEST(SpscQueueProperty, RacingProducerConsumerKeepsFifoAndMonotoneHighWater) {
  constexpr std::size_t kCapacity = 8;
  constexpr std::uint64_t kItems = 50'000;
  SpscQueue<std::uint64_t> queue(kCapacity);

  std::thread producer([&] {
    for (std::uint64_t v = 0; v < kItems;) {
      if (queue.try_push(std::uint64_t{v})) {
        ++v;
      } else {
        std::this_thread::yield();  // full: let the consumer catch up
      }
    }
  });

  // Consumer on this thread: FIFO means the popped sequence is exactly
  // 0..kItems-1 even while the producer races.
  std::uint64_t expected = 0;
  std::size_t sampled_high_water = 0;
  while (expected < kItems) {
    if (const auto popped = queue.try_pop()) {
      ASSERT_EQ(*popped, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
    if ((expected & 0x3ff) == 0) {
      // high_water is monotone and bounded even when read mid-flight
      // from a thread that is neither producer nor consumer-only.
      const std::size_t hw = queue.high_water();
      ASSERT_GE(hw, sampled_high_water);
      ASSERT_LE(hw, kCapacity);
      sampled_high_water = hw;
    }
  }
  producer.join();
  EXPECT_TRUE(queue.empty());
  EXPECT_LE(queue.high_water(), kCapacity);
  EXPECT_GE(queue.high_water(), 1u);
}

}  // namespace
}  // namespace spotfi
