#include "phy/phy_csi_source.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace spotfi {

PhyCsiSynthesizer::PhyCsiSynthesizer(PhyConfig phy,
                                     ImpairmentConfig impairments)
    : phy_(phy), impairments_(impairments), frame_(transmit_ltf_frame()) {
  SPOTFI_EXPECTS(phy_.link.n_subcarriers == 30,
                 "waveform source reports the 5300's 30-subcarrier grid");
}

LinkConfig PhyCsiSynthesizer::reported_link() const {
  LinkConfig link = phy_.link;
  link.subcarrier_spacing_hz = 4.0 * kSubcarrierSpacingHz;
  link.n_subcarriers = 30;
  return link;
}

CsiPacket PhyCsiSynthesizer::synthesize(std::span<const PathComponent> paths,
                                        double timestamp_s, Rng& rng) const {
  SPOTFI_EXPECTS(!paths.empty(), "need at least one path");

  // Per-packet common timing offset: transmit clock / trigger jitter.
  // Unlike the analytic source, this is applied to the *waveform*; the
  // receiver's detector absorbs the integer part and the remainder shows
  // up in the CSI as a real STO would.
  const double sto =
      impairments_.sto_base_s +
      rng.uniform(-impairments_.sto_jitter_s, impairments_.sto_jitter_s);
  std::vector<PathComponent> shifted(paths.begin(), paths.end());
  for (auto& p : shifted) {
    p.tof_s += sto;
    if (!p.is_direct) {
      p.phase_rad += rng.normal(0.0, impairments_.indirect_phase_jitter_rad);
      p.gain_db += rng.normal(0.0, impairments_.indirect_gain_jitter_db);
      p.tof_s += rng.normal(0.0, impairments_.indirect_tof_jitter_s);
      p.aoa_rad += rng.normal(0.0, impairments_.indirect_aoa_jitter_rad);
    }
  }

  // Link budget -> per-antenna waveform SNR.
  double rx_mw = 0.0;
  for (const auto& p : paths) {
    rx_mw += std::pow(10.0, (kTxPowerDbm + p.gain_db) / 10.0);
  }
  const double rx_dbm = 10.0 * std::log10(std::max(rx_mw, 1e-12));
  PhyConfig phy = phy_;
  phy.snr_db = std::min(rx_dbm - impairments_.noise_floor_dbm,
                        impairments_.max_snr_db);

  // Normalize path gains so the strongest is 0 dB (the SNR knob carries
  // the absolute level; keeps waveform amplitudes well-scaled).
  double strongest = -1e300;
  for (const auto& p : shifted) strongest = std::max(strongest, p.gain_db);
  for (auto& p : shifted) p.gain_db -= strongest;

  const CMatrix rx = apply_multipath_channel(frame_, shifted, phy, rng);
  PhyCsiResult received = receive_csi(rx);

  CsiPacket packet;
  packet.timestamp_s = timestamp_s;
  packet.csi = std::move(received.csi);

  if (impairments_.random_common_phase) {
    const cplx cpo = std::polar(1.0, rng.uniform(0.0, 2.0 * kPi));
    for (auto& v : packet.csi.flat()) v *= cpo;
  }
  if (impairments_.quantize_8bit) {
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
  packet.rssi_dbm = rx_dbm + rng.normal(0.0, impairments_.rssi_shadowing_db);
  return packet;
}

std::vector<CsiPacket> PhyCsiSynthesizer::synthesize_burst(
    std::span<const PathComponent> paths, std::size_t n_packets,
    double interval_s, Rng& rng) const {
  SPOTFI_EXPECTS(n_packets > 0, "need at least one packet");
  std::vector<cplx> chain(phy_.link.n_antennas);
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
