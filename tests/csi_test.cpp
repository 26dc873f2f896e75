// Tests for CSI handling: phase unwrapping, Algorithm 1 sanitization
// (including its key invariance property), smoothed-CSI construction per
// Fig. 4, and the trace format round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "channel/csi_synthesis.hpp"
#include "common/angles.hpp"
#include "csi/phase.hpp"
#include "csi/sanitize.hpp"
#include "csi/smoothing.hpp"
#include "csi/trace.hpp"
#include "linalg/hermitian_eig.hpp"
#include "music/steering.hpp"

namespace spotfi {
namespace {

TEST(Phase, UnwrapRecoversLinearRamp) {
  // Phase ramp of -0.9 rad per step wraps several times over 40 steps.
  std::vector<double> wrapped(40);
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    wrapped[i] = wrap_pi(-0.9 * static_cast<double>(i));
  }
  unwrap_in_place(wrapped);
  for (std::size_t i = 0; i < wrapped.size(); ++i) {
    EXPECT_NEAR(wrapped[i], -0.9 * static_cast<double>(i), 1e-9);
  }
}

TEST(Phase, UnwrapIsIdentityWithoutJumps) {
  std::vector<double> phase{0.0, 0.5, 1.0, 0.7, 0.1, -0.4};
  const auto original = phase;
  unwrap_in_place(phase);
  for (std::size_t i = 0; i < phase.size(); ++i) {
    EXPECT_NEAR(phase[i], original[i], 1e-12);
  }
}

TEST(Phase, UnwrappedMatrixRowsIndependent) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  CMatrix csi(link.n_antennas, link.n_subcarriers);
  for (std::size_t m = 0; m < csi.rows(); ++m) {
    for (std::size_t n = 0; n < csi.cols(); ++n) {
      csi(m, n) = std::polar(1.0, -0.8 * static_cast<double>(n) +
                                      0.3 * static_cast<double>(m));
    }
  }
  const RMatrix psi = unwrapped_phase(csi);
  for (std::size_t m = 0; m < psi.rows(); ++m) {
    for (std::size_t n = 1; n < psi.cols(); ++n) {
      EXPECT_NEAR(psi(m, n) - psi(m, n - 1), -0.8, 1e-9);
    }
  }
}

CsiSynthesizer noiseless_synth(double sto_base) {
  ImpairmentConfig imp;
  imp.sto_base_s = sto_base;
  imp.sto_jitter_s = 0.0;
  imp.random_common_phase = false;
  imp.quantize_8bit = false;
  imp.max_snr_db = 200.0;
  imp.noise_floor_dbm = -300.0;
  imp.rssi_shadowing_db = 0.0;
  imp.indirect_phase_jitter_rad = 0.0;
  imp.indirect_gain_jitter_db = 0.0;
  imp.indirect_tof_jitter_s = 0.0;
  imp.indirect_aoa_jitter_rad = 0.0;
  return {LinkConfig::intel5300_40mhz(), imp};
}

std::vector<PathComponent> two_paths() {
  PathComponent p1, p2;
  p1.aoa_rad = deg_to_rad(20.0);
  p1.tof_s = 30e-9;
  p1.gain_db = -3.0;
  p1.phase_rad = 0.4;
  p2.aoa_rad = deg_to_rad(-35.0);
  p2.tof_s = 75e-9;
  p2.gain_db = -8.0;
  p2.phase_rad = -1.1;
  return {p1, p2};
}

TEST(Sanitize, RemovesPureStoCompletely) {
  // Single path: after removing the common linear term, the subcarrier
  // phase slope should be (nearly) flat regardless of STO.
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  PathComponent p;
  p.tof_s = 40e-9;
  p.gain_db = 0.0;
  const auto synth = noiseless_synth(120e-9);
  Rng rng(1);
  const auto packet =
      synth.synthesize(std::span<const PathComponent>(&p, 1), 0.0, rng);
  const SanitizeResult result = sanitize_tof(packet.csi, link);
  // The fitted STO estimate absorbs path ToF + STO = 160 ns.
  EXPECT_NEAR(result.fitted_sto_s, 160e-9, 1e-12);
  const RMatrix psi = unwrapped_phase(result.csi);
  for (std::size_t n = 1; n < psi.cols(); ++n) {
    EXPECT_NEAR(psi(0, n) - psi(0, n - 1), 0.0, 1e-9);
  }
}

TEST(Sanitize, InvarianceAcrossStoChanges) {
  // The paper's key claim (Sec. 3.2.2): two packets that differ only in
  // STO have identical sanitized phase responses.
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const auto paths = two_paths();
  const auto synth_a = noiseless_synth(35e-9);
  const auto synth_b = noiseless_synth(190e-9);
  Rng rng(2);
  const auto pkt_a = synth_a.synthesize(paths, 0.0, rng);
  const auto pkt_b = synth_b.synthesize(paths, 0.0, rng);

  const CMatrix clean_a = sanitize_tof(pkt_a.csi, link).csi;
  const CMatrix clean_b = sanitize_tof(pkt_b.csi, link).csi;
  EXPECT_LT((clean_a - clean_b).max_abs(), 1e-6 * clean_a.max_abs());
}

TEST(Sanitize, PreservesMagnitudes) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const auto synth = noiseless_synth(80e-9);
  Rng rng(3);
  const auto pkt = synth.synthesize(two_paths(), 0.0, rng);
  const CMatrix clean = sanitize_tof(pkt.csi, link).csi;
  for (std::size_t m = 0; m < clean.rows(); ++m) {
    for (std::size_t n = 0; n < clean.cols(); ++n) {
      EXPECT_NEAR(std::abs(clean(m, n)), std::abs(pkt.csi(m, n)), 1e-12);
    }
  }
}

TEST(Sanitize, PreservesAoaInformation) {
  // Sanitization applies the same rotation to every antenna, so relative
  // phases between antennas (the AoA signal) are untouched.
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const auto synth = noiseless_synth(80e-9);
  Rng rng(4);
  const auto pkt = synth.synthesize(two_paths(), 0.0, rng);
  const CMatrix clean = sanitize_tof(pkt.csi, link).csi;
  for (std::size_t n = 0; n < clean.cols(); ++n) {
    const cplx before = pkt.csi(1, n) / pkt.csi(0, n);
    const cplx after = clean(1, n) / clean(0, n);
    EXPECT_NEAR(std::abs(before - after), 0.0, 1e-9);
  }
}

TEST(Sanitize, RejectsTooSmallInput) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  EXPECT_THROW(sanitize_tof(CMatrix(3, 1), link), ContractViolation);
}

TEST(Smoothing, PaperDimensions) {
  const SmoothingConfig cfg;
  EXPECT_EQ(smoothed_rows(cfg), 30u);
  EXPECT_EQ(smoothed_cols(3, 30, cfg), 32u);
}

TEST(Smoothing, EntriesMatchFig4Layout) {
  // Fill CSI with identifiable values csi(m, n) = m*1000 + n.
  CMatrix csi(3, 30);
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::size_t n = 0; n < 30; ++n) {
      csi(m, n) = cplx(static_cast<double>(m * 1000 + n), 0.0);
    }
  }
  const CMatrix x = smoothed_csi(csi);
  ASSERT_EQ(x.rows(), 30u);
  ASSERT_EQ(x.cols(), 32u);
  // Column 0 = antennas {0,1} x subcarriers {0..14}: first row is
  // csi(0, 0), row 15 is csi(1, 0).
  EXPECT_EQ(x(0, 0), csi(0, 0));
  EXPECT_EQ(x(14, 0), csi(0, 14));
  EXPECT_EQ(x(15, 0), csi(1, 0));
  EXPECT_EQ(x(29, 0), csi(1, 14));
  // Column 1 shifts one subcarrier.
  EXPECT_EQ(x(0, 1), csi(0, 1));
  EXPECT_EQ(x(29, 1), csi(1, 15));
  // Column 16 shifts one antenna (antenna-shift-major after all 16
  // subcarrier shifts).
  EXPECT_EQ(x(0, 16), csi(1, 0));
  EXPECT_EQ(x(15, 16), csi(2, 0));
  // Last column: antenna shift 1, subcarrier shift 15.
  EXPECT_EQ(x(0, 31), csi(1, 15));
  EXPECT_EQ(x(29, 31), csi(2, 29));
}

TEST(Smoothing, SteeringVectorColumnScalingProperty) {
  // The property Fig. 3 illustrates: for a single path, each smoothed
  // column is the previous subcarrier-shift column scaled by Omega(tau),
  // and antenna-shifted columns are scaled by Phi(theta).
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ImpairmentConfig imp;
  imp.sto_base_s = 0.0;
  imp.sto_jitter_s = 0.0;
  imp.random_common_phase = false;
  imp.quantize_8bit = false;
  imp.noise_floor_dbm = -300.0;
  const CsiSynthesizer synth(link, imp);
  PathComponent p;
  p.aoa_rad = deg_to_rad(25.0);
  p.tof_s = 55e-9;
  p.gain_db = 0.0;
  const CMatrix csi = synth.ideal_csi(std::span<const PathComponent>(&p, 1));
  const CMatrix x = smoothed_csi(csi);

  const cplx omega = omega_factor(p.tof_s, link);
  const cplx phi = phi_factor(p.aoa_rad, link);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    EXPECT_NEAR(std::abs(x(r, 1) - omega * x(r, 0)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x(r, 16) - phi * x(r, 0)), 0.0, 1e-12);
  }
}

TEST(Smoothing, RankEqualsPathCountForFewPaths) {
  // With L paths the smoothed matrix has rank L (the MUSIC requirement).
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ImpairmentConfig imp;
  imp.sto_jitter_s = 0.0;
  imp.sto_base_s = 0.0;
  imp.random_common_phase = false;
  imp.quantize_8bit = false;
  imp.noise_floor_dbm = -300.0;
  const CsiSynthesizer synth(link, imp);

  std::vector<PathComponent> paths;
  const double aoas[] = {-50.0, -10.0, 15.0, 45.0, 70.0};
  const double tofs[] = {20e-9, 60e-9, 110e-9, 170e-9, 240e-9};
  for (int l = 0; l < 5; ++l) {
    PathComponent p;
    p.aoa_rad = deg_to_rad(aoas[l]);
    p.tof_s = tofs[l];
    p.gain_db = -3.0 * l;
    p.phase_rad = 0.3 * l;
    paths.push_back(p);

    const CMatrix x = smoothed_csi(synth.ideal_csi(paths));
    // Count numerically nonzero singular values via gram eigenvalues.
    Workspace ws;
    const auto eig = eigh(x.gram(), ws);
    const double lambda_max = eig.eigenvalues.back();
    int rank = 0;
    for (double ev : eig.eigenvalues) {
      if (ev > 1e-9 * lambda_max) ++rank;
    }
    EXPECT_EQ(rank, l + 1) << "after adding path " << l;
  }
}

TEST(Smoothing, InvalidSubarrayThrows) {
  SmoothingConfig cfg;
  cfg.sub_len = 31;
  EXPECT_THROW((void)smoothed_cols(3, 30, cfg), ContractViolation);
  cfg.sub_len = 15;
  cfg.ant_len = 4;
  EXPECT_THROW((void)smoothed_cols(3, 30, cfg), ContractViolation);
}

TEST(SpatialSmoothing, SnapshotLayout) {
  // The antenna-only snapshots of the MUSIC-AoA baseline are the joint
  // smoothing with a one-subcarrier subarray: column da * N + n holds
  // antennas da .. da + ant_len - 1 of subcarrier n.
  CMatrix csi(3, 4);
  for (std::size_t m = 0; m < 3; ++m) {
    for (std::size_t n = 0; n < 4; ++n) {
      csi(m, n) = cplx(static_cast<double>(10 * m + n), 0.0);
    }
  }
  const CMatrix x = smoothed_csi(csi, {.sub_len = 1, .ant_len = 2});
  ASSERT_EQ(x.rows(), 2u);
  ASSERT_EQ(x.cols(), 8u);  // 2 antenna shifts x 4 subcarriers
  EXPECT_EQ(x(0, 0), csi(0, 0));
  EXPECT_EQ(x(1, 0), csi(1, 0));
  EXPECT_EQ(x(0, 4), csi(1, 0));
  EXPECT_EQ(x(1, 4), csi(2, 0));
}

// --- trace format ---

TEST(Trace, RoundTripPreservesShapeAndValues) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const auto synth = noiseless_synth(50e-9);
  Rng rng(11);
  auto packets = synth.synthesize_burst(two_paths(), 4, 0.1, rng);

  std::stringstream ss;
  write_trace(ss, link, packets);
  const Trace trace = read_trace(ss);

  EXPECT_EQ(trace.link.n_antennas, link.n_antennas);
  EXPECT_EQ(trace.link.n_subcarriers, link.n_subcarriers);
  EXPECT_NEAR(trace.link.carrier_hz, link.carrier_hz, 1.0);
  ASSERT_EQ(trace.packets.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_NEAR(trace.packets[i].timestamp_s, packets[i].timestamp_s, 1e-9);
    EXPECT_NEAR(trace.packets[i].rssi_dbm, packets[i].rssi_dbm, 0.51);
    // 8-bit I/Q: entries agree to quantization accuracy (~1% of max).
    const double scale = packets[i].csi.max_abs();
    EXPECT_LT((trace.packets[i].csi - packets[i].csi).max_abs(),
              0.02 * scale);
  }
}

TEST(Trace, FileRoundTrip) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const auto synth = noiseless_synth(10e-9);
  Rng rng(12);
  auto packets = synth.synthesize_burst(two_paths(), 2, 0.05, rng);
  const std::string path = ::testing::TempDir() + "/spotfi_trace_test.dat";
  write_trace(path, link, packets);
  const Trace trace = read_trace(path);
  EXPECT_EQ(trace.packets.size(), 2u);
}

TEST(Trace, RoundTripWithNonDefaultLink) {
  // 20 MHz link with 2 antennas: the header must carry the configuration.
  LinkConfig link = LinkConfig::intel5300_20mhz();
  link.n_antennas = 2;
  CsiPacket packet;
  packet.csi = CMatrix(2, 30);
  for (std::size_t n = 0; n < 30; ++n) {
    packet.csi(0, n) = std::polar(1.0, 0.1 * static_cast<double>(n));
    packet.csi(1, n) = std::polar(0.5, -0.2 * static_cast<double>(n));
  }
  packet.rssi_dbm = -61.0;
  packet.timestamp_s = 3.5;
  std::stringstream ss;
  write_trace(ss, link, std::span<const CsiPacket>(&packet, 1));
  const Trace trace = read_trace(ss);
  EXPECT_EQ(trace.link.n_antennas, 2u);
  EXPECT_NEAR(trace.link.subcarrier_spacing_hz, link.subcarrier_spacing_hz,
              1e-6);
  ASSERT_EQ(trace.packets.size(), 1u);
  EXPECT_NEAR(trace.packets[0].rssi_dbm, -61.0, 0.51);
}

TEST(Trace, BadMagicThrows) {
  std::stringstream ss;
  ss << "NOPE furthermore this is not a trace";
  EXPECT_THROW(read_trace(ss), ParseError);
}

TEST(Trace, TruncatedRecordThrows) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const auto synth = noiseless_synth(10e-9);
  Rng rng(13);
  auto packets = synth.synthesize_burst(two_paths(), 1, 0.05, rng);
  std::stringstream ss;
  write_trace(ss, link, packets);
  std::string blob = ss.str();
  blob.resize(blob.size() - 7);  // chop mid-record
  std::stringstream truncated(blob);
  EXPECT_THROW(read_trace(truncated), ParseError);
}

TEST(Trace, MissingFileThrows) {
  EXPECT_THROW(read_trace(std::string("/nonexistent/path/file.dat")),
               ParseError);
}

TEST(Trace, ShapeMismatchOnWriteThrows) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  CsiPacket bad;
  bad.csi = CMatrix(2, 30);  // wrong antenna count
  std::stringstream ss;
  EXPECT_THROW(
      write_trace(ss, link, std::span<const CsiPacket>(&bad, 1)),
      ContractViolation);
}

}  // namespace
}  // namespace spotfi
