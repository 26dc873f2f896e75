#include "channel/csi_synthesis.hpp"

#include <algorithm>
#include <cmath>

namespace spotfi {

CsiSynthesizer::CsiSynthesizer(LinkConfig link, ImpairmentConfig impairments)
    : link_(link), impairments_(impairments) {
  SPOTFI_EXPECTS(link_.n_antennas >= 1 && link_.n_subcarriers >= 2,
                 "link must have >= 1 antenna and >= 2 subcarriers");
}

CMatrix CsiSynthesizer::ideal_csi(std::span<const PathComponent> paths) const {
  SPOTFI_EXPECTS(!paths.empty(), "need at least one path");
  const std::size_t m_ant = link_.n_antennas;
  const std::size_t n_sub = link_.n_subcarriers;
  CMatrix csi(m_ant, n_sub);
  for (const auto& path : paths) {
    const cplx gamma = path.complex_gain();
    // Per-antenna phase factor Phi(theta) (Eq. 1) and per-subcarrier
    // factor Omega(tau) (Eq. 6).
    const double phi_arg = -2.0 * kPi * link_.antenna_spacing_m *
                           std::sin(path.aoa_rad) * link_.carrier_hz /
                           kSpeedOfLight;
    const cplx phi = std::polar(1.0, phi_arg);
    const cplx omega =
        std::polar(1.0, -2.0 * kPi * link_.subcarrier_spacing_hz * path.tof_s);
    cplx ant_factor{1.0, 0.0};
    for (std::size_t m = 0; m < m_ant; ++m) {
      cplx sub_factor{1.0, 0.0};
      for (std::size_t n = 0; n < n_sub; ++n) {
        csi(m, n) += gamma * ant_factor * sub_factor;
        sub_factor *= omega;
      }
      ant_factor *= phi;
    }
  }
  return csi;
}

double CsiSynthesizer::received_power_dbm(
    std::span<const PathComponent> paths) const {
  double mw = 0.0;
  for (const auto& p : paths) {
    mw += std::pow(10.0, (kTxPowerDbm + p.gain_db) / 10.0);
  }
  return 10.0 * std::log10(std::max(mw, 1e-12));
}

CsiPacket CsiSynthesizer::synthesize(std::span<const PathComponent> paths,
                                     double timestamp_s, Rng& rng) const {
  SPOTFI_EXPECTS(!paths.empty(), "need at least one path");
  const std::size_t m_ant = link_.n_antennas;
  const std::size_t n_sub = link_.n_subcarriers;

  // Per-packet STO shifts the ToF of *every* path equally (Sec. 3.2).
  const double sto =
      impairments_.sto_base_s +
      rng.uniform(-impairments_.sto_jitter_s, impairments_.sto_jitter_s);
  std::vector<PathComponent> shifted(paths.begin(), paths.end());
  for (auto& p : shifted) {
    p.tof_s += sto;
    if (!p.is_direct) {
      // Environmental micro-dynamics on indirect paths (see config).
      p.phase_rad += rng.normal(0.0, impairments_.indirect_phase_jitter_rad);
      p.gain_db += rng.normal(0.0, impairments_.indirect_gain_jitter_db);
      p.tof_s += rng.normal(0.0, impairments_.indirect_tof_jitter_s);
      p.aoa_rad += rng.normal(0.0, impairments_.indirect_aoa_jitter_rad);
    }
  }

  CsiPacket packet;
  packet.timestamp_s = timestamp_s;
  packet.csi = ideal_csi(shifted);

  if (impairments_.random_common_phase) {
    const cplx cpo = std::polar(1.0, rng.uniform(0.0, 2.0 * kPi));
    for (auto& v : packet.csi.flat()) v *= cpo;
  }

  // Link budget: per-entry SNR from total received power vs. noise floor.
  const double rx_dbm = received_power_dbm(paths);
  const double snr_db = std::min(rx_dbm - impairments_.noise_floor_dbm,
                                 impairments_.max_snr_db);
  // Mean squared CSI magnitude defines the signal power in CSI units.
  double sig_power = 0.0;
  for (const auto& v : packet.csi.flat()) sig_power += std::norm(v);
  sig_power /= static_cast<double>(packet.csi.size());
  const double noise_power = sig_power * std::pow(10.0, -snr_db / 10.0);
  const double noise_sigma = std::sqrt(noise_power / 2.0);
  for (auto& v : packet.csi.flat()) {
    v += cplx(rng.normal(0.0, noise_sigma), rng.normal(0.0, noise_sigma));
  }

  if (impairments_.quantize_8bit) {
    // AGC: scale the strongest I/Q component to ~90% of int8 range, then
    // round — mirrors the 5300's 8-bit CSI report.
    double max_comp = 0.0;
    for (const auto& v : packet.csi.flat()) {
      max_comp = std::max({max_comp, std::abs(v.real()), std::abs(v.imag())});
    }
    if (max_comp > 0.0) {
      const double scale = 114.0 / max_comp;
      for (auto& v : packet.csi.flat()) {
        const double re = std::round(v.real() * scale);
        const double im = std::round(v.imag() * scale);
        v = cplx(std::clamp(re, -128.0, 127.0) / scale,
                 std::clamp(im, -128.0, 127.0) / scale);
      }
    }
  }

  packet.rssi_dbm =
      rx_dbm + rng.normal(0.0, impairments_.rssi_shadowing_db);
  (void)m_ant;
  (void)n_sub;
  return packet;
}

std::vector<CsiPacket> CsiSynthesizer::synthesize_burst(
    std::span<const PathComponent> paths, std::size_t n_packets,
    double interval_s, Rng& rng) const {
  SPOTFI_EXPECTS(n_packets > 0, "need at least one packet");
  // Static per-antenna calibration residuals for this capture.
  std::vector<cplx> chain(link_.n_antennas);
  for (auto& c : chain) {
    const double gain_db =
        rng.normal(0.0, impairments_.gain_calibration_sigma_db);
    const double phase =
        rng.normal(0.0, impairments_.phase_calibration_sigma_rad);
    c = std::polar(std::pow(10.0, gain_db / 20.0), phase);
  }
  std::vector<CsiPacket> burst;
  burst.reserve(n_packets);
  for (std::size_t i = 0; i < n_packets; ++i) {
    burst.push_back(
        synthesize(paths, static_cast<double>(i) * interval_s, rng));
    CMatrix& csi = burst.back().csi;
    for (std::size_t m = 0; m < csi.rows(); ++m) {
      for (std::size_t n = 0; n < csi.cols(); ++n) csi(m, n) *= chain[m];
    }
  }
  return burst;
}

}  // namespace spotfi
