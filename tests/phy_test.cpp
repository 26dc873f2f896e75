// Tests for the waveform substrate: FFT correctness, OFDM numerology,
// LTF construction, packet detection, channel estimation, and — the key
// closing-the-loop property — agreement between waveform-derived CSI and
// the analytic Eq. 1-7 model that the rest of the library synthesizes.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/csi_synthesis.hpp"
#include "common/angles.hpp"
#include "music/estimators.hpp"
#include "phy/fft.hpp"
#include "phy/transceiver.hpp"

namespace spotfi {
namespace {

// --- FFT ---

TEST(Fft, MatchesNaiveDftOnRandomInput) {
  Rng rng(1);
  for (const std::size_t n : {2u, 8u, 64u, 128u}) {
    CVector x(n);
    for (auto& v : x) v = cplx(rng.normal(), rng.normal());
    const CVector fast = fft(x);
    const CVector slow = dft_reference(x);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_LT(std::abs(fast[k] - slow[k]), 1e-9 * std::sqrt(n))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Fft, RoundTripIsIdentity) {
  Rng rng(2);
  CVector x(256);
  for (auto& v : x) v = cplx(rng.normal(), rng.normal());
  const CVector back = ifft(fft(x));
  for (std::size_t k = 0; k < x.size(); ++k) {
    EXPECT_LT(std::abs(back[k] - x[k]), 1e-12);
  }
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  CVector x(16, cplx{});
  x[0] = cplx(1.0, 0.0);
  const CVector spectrum = fft(x);
  for (const auto& v : spectrum) {
    EXPECT_LT(std::abs(v - cplx(1.0, 0.0)), 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  CVector x(n);
  for (std::size_t t = 0; t < n; ++t) {
    x[t] = std::polar(1.0, 2.0 * kPi * 5.0 * static_cast<double>(t) /
                               static_cast<double>(n));
  }
  const CVector spectrum = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == 5) {
      EXPECT_NEAR(std::abs(spectrum[k]), static_cast<double>(n), 1e-9);
    } else {
      EXPECT_LT(std::abs(spectrum[k]), 1e-9);
    }
  }
}

TEST(Fft, NonPowerOfTwoThrows) {
  CVector x(12);
  EXPECT_THROW(fft_in_place(x), ContractViolation);
  CVector empty;
  EXPECT_THROW(fft_in_place(empty), ContractViolation);
}

// --- OFDM ---

TEST(Ofdm, NumerologyMatches5300) {
  EXPECT_NEAR(kSubcarrierSpacingHz, 312.5e3, 1e-6);
  EXPECT_EQ(kSymbolSamples, 160u);
  EXPECT_EQ(occupied_subcarriers().size(), 116u);  // +-1..58 minus DC
}

TEST(Ofdm, BinMappingWrapsNegatives) {
  EXPECT_EQ(bin_of(1), 1u);
  EXPECT_EQ(bin_of(-1), 127u);
  EXPECT_EQ(bin_of(-58), 70u);
  EXPECT_THROW((void)bin_of(64), ContractViolation);
}

TEST(Ofdm, LtfSymbolHasUnitPowerAndCyclicPrefix) {
  const CVector symbol = ltf_time_symbol();
  ASSERT_EQ(symbol.size(), kSymbolSamples);
  double power = 0.0;
  for (const auto& v : symbol) power += std::norm(v);
  // CP repeats core samples, so total power ~= symbol_samples.
  EXPECT_NEAR(power / static_cast<double>(symbol.size()), 1.0, 0.05);
  // CP equals the core's tail.
  for (std::size_t t = 0; t < kCyclicPrefix; ++t) {
    EXPECT_LT(std::abs(symbol[t] - symbol[t + kFftSize]), 1e-12);
  }
}

TEST(Ofdm, LtfSequenceIsDeterministicPlusMinusOne) {
  const auto a = ltf_sequence();
  const auto b = ltf_sequence();
  EXPECT_EQ(a, b);
  int plus = 0;
  for (const double v : a) {
    EXPECT_TRUE(v == 1.0 || v == -1.0);
    plus += (v == 1.0);
  }
  // Roughly balanced signs.
  EXPECT_GT(plus, 30);
  EXPECT_LT(plus, static_cast<int>(a.size()) - 30);
}

// --- transceiver ---

PathComponent phy_path(double aoa_deg, double tof_ns, double gain_db,
                       bool direct = true) {
  PathComponent p;
  p.aoa_rad = deg_to_rad(aoa_deg);
  p.tof_s = tof_ns * 1e-9;
  p.gain_db = gain_db;
  p.is_direct = direct;
  return p;
}

TEST(Transceiver, DetectsFrameAtTruePosition) {
  const PhyConfig cfg;
  const PhyFrame frame = transmit_ltf_frame();
  const auto p = phy_path(0.0, 0.0, 0.0);
  Rng rng(3);
  const CMatrix rx = apply_multipath_channel(
      frame, std::span<const PathComponent>(&p, 1), cfg, rng);
  const PhyCsiResult result = receive_csi(rx);
  // Zero delay: detection lands on the true frame start (within a couple
  // of samples of correlator ambiguity).
  EXPECT_NEAR(static_cast<double>(result.detected_start),
              static_cast<double>(frame.frame_start), 2.0);
}

TEST(Transceiver, IntegerDelayMovesDetection) {
  PhyConfig cfg;
  cfg.snr_db = 40.0;
  const PhyFrame frame = transmit_ltf_frame();
  // 1 sample at 40 Msps = 25 ns.
  const auto p = phy_path(0.0, 50.0, 0.0);  // two samples
  Rng rng(4);
  const CMatrix rx = apply_multipath_channel(
      frame, std::span<const PathComponent>(&p, 1), cfg, rng);
  const PhyCsiResult result = receive_csi(rx);
  EXPECT_NEAR(static_cast<double>(result.detected_start),
              static_cast<double>(frame.frame_start) + 2.0, 2.0);
}

TEST(Transceiver, CsiShapeIs3x30) {
  const PhyConfig cfg;
  const PhyFrame frame = transmit_ltf_frame();
  const auto p = phy_path(10.0, 30.0, 0.0);
  Rng rng(5);
  const CMatrix rx = apply_multipath_channel(
      frame, std::span<const PathComponent>(&p, 1), cfg, rng);
  const PhyCsiResult result = receive_csi(rx);
  EXPECT_EQ(result.csi.rows(), 3u);
  EXPECT_EQ(result.csi.cols(), 30u);
}

TEST(Transceiver, NoSignalThrows) {
  CMatrix silence(3, 1000);
  EXPECT_THROW(receive_csi(silence), DetectionError);
}

TEST(Transceiver, AntennaPhaseMatchesAoaModel) {
  // Single path at a known AoA: the inter-antenna CSI ratio must equal
  // Phi(theta) from Eq. 1.
  PhyConfig cfg;
  cfg.snr_db = 60.0;
  const PhyFrame frame = transmit_ltf_frame();
  const double aoa_deg = 35.0;
  const auto p = phy_path(aoa_deg, 0.0, 0.0);
  Rng rng(6);
  const CMatrix rx = apply_multipath_channel(
      frame, std::span<const PathComponent>(&p, 1), cfg, rng);
  const PhyCsiResult result = receive_csi(rx);
  const double expected = -2.0 * kPi * cfg.link.antenna_spacing_m *
                          std::sin(deg_to_rad(aoa_deg)) *
                          cfg.link.carrier_hz / kSpeedOfLight;
  for (std::size_t n = 0; n < result.csi.cols(); n += 7) {
    const double measured =
        std::arg(result.csi(1, n) / result.csi(0, n));
    EXPECT_NEAR(wrap_pi(measured - expected), 0.0, 0.03) << "n=" << n;
  }
}

TEST(Transceiver, FractionalDelayShowsAsPhaseSlope) {
  // Residual (sub-sample) delay appears as a linear phase across the
  // reported subcarriers — the ToF observable of Sec. 3.1.2.
  PhyConfig cfg;
  cfg.snr_db = 60.0;
  const PhyFrame frame = transmit_ltf_frame();
  const double tof_ns = 60.0;  // 2.4 samples
  const auto p = phy_path(0.0, tof_ns, 0.0);
  Rng rng(7);
  const CMatrix rx = apply_multipath_channel(
      frame, std::span<const PathComponent>(&p, 1), cfg, rng);
  const PhyCsiResult result = receive_csi(rx);
  // Detected integer offset absorbs whole samples; the measured slope
  // corresponds to the remaining fractional delay.
  const double detect_delay =
      static_cast<double>(result.detected_start - frame.frame_start) /
      kSampleRateHz;
  const double residual_tof = tof_ns * 1e-9 - detect_delay;
  // Reported grid spacing: 4 bins of 312.5 kHz.
  const double spacing = 4.0 * kSubcarrierSpacingHz;
  const double expected_step = -2.0 * kPi * spacing * residual_tof;
  double mean_step = 0.0;
  int count = 0;
  for (std::size_t n = 1; n < result.csi.cols(); ++n) {
    if (n == 15) continue;  // DC gap between -2 and 2 is still 4 bins here
    mean_step += wrap_pi(std::arg(result.csi(0, n) / result.csi(0, n - 1)));
    ++count;
  }
  mean_step /= count;
  EXPECT_NEAR(mean_step, wrap_pi(expected_step), 0.02);
}

TEST(Transceiver, WaveformCsiMatchesAnalyticModelEstimates) {
  // The closing-the-loop fidelity check. The two CSI syntheses use
  // different per-path phase reference conventions (the analytic model
  // references the first subcarrier, the waveform the band center), so a
  // raw entry-wise comparison is only meaningful per path; what must
  // agree is everything an estimator extracts: both CSIs must yield the
  // same multipath (AoA, ToF) estimates up to the detection-delay shift
  // common to all paths.
  PhyConfig cfg;
  cfg.snr_db = 55.0;
  const PhyFrame frame = transmit_ltf_frame();
  const std::vector<PathComponent> paths{phy_path(20.0, 40.0, 0.0),
                                         phy_path(-45.0, 140.0, -6.0, false)};
  Rng rng(8);
  const CMatrix rx = apply_multipath_channel(frame, paths, cfg, rng);
  const PhyCsiResult result = receive_csi(rx);

  ImpairmentConfig imp;
  const CsiSynthesizer synth(cfg.link, imp);
  LinkConfig link = cfg.link;
  link.subcarrier_spacing_hz = 4.0 * kSubcarrierSpacingHz;
  const CMatrix ideal = synth.ideal_csi(paths);

  const JointMusicEstimator estimator(link);
  auto from_wave = estimator.estimate(result.csi);
  auto from_model = estimator.estimate(ideal);
  ASSERT_EQ(from_wave.size(), 2u);
  ASSERT_EQ(from_model.size(), 2u);
  auto by_aoa = [](const PathEstimate& a, const PathEstimate& b) {
    return a.aoa_rad < b.aoa_rad;
  };
  std::sort(from_wave.begin(), from_wave.end(), by_aoa);
  std::sort(from_model.begin(), from_model.end(), by_aoa);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_NEAR(rad_to_deg(from_wave[k].aoa_rad),
                rad_to_deg(from_model[k].aoa_rad), 1.0);
  }
  // ToF *differences* between paths agree (the absolute values differ by
  // the common packet-detection delay, as on real hardware).
  const double gap_wave = (from_wave[1].tof_s - from_wave[0].tof_s) * 1e9;
  const double gap_model = (from_model[1].tof_s - from_model[0].tof_s) * 1e9;
  EXPECT_NEAR(gap_wave, gap_model, 5.0);
}

TEST(Transceiver, MusicRecoversAoaFromWaveformCsi) {
  // End to end: waveform -> CSI -> SpotFi's estimator.
  PhyConfig cfg;
  cfg.snr_db = 35.0;
  const PhyFrame frame = transmit_ltf_frame();
  const auto p = phy_path(-30.0, 50.0, 0.0);
  Rng rng(9);
  const CMatrix rx = apply_multipath_channel(
      frame, std::span<const PathComponent>(&p, 1), cfg, rng);
  const PhyCsiResult result = receive_csi(rx);

  LinkConfig link = cfg.link;
  link.subcarrier_spacing_hz = 4.0 * kSubcarrierSpacingHz;
  const JointMusicEstimator estimator(link);
  const auto estimates = estimator.estimate(result.csi);
  ASSERT_FALSE(estimates.empty());
  EXPECT_NEAR(rad_to_deg(estimates[0].aoa_rad), -30.0, 1.5);
}

}  // namespace
}  // namespace spotfi
