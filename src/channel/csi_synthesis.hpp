// CSI synthesis: turns a set of propagation paths into the quantized 3x30
// complex CSI matrix a commodity Intel 5300 NIC would report, packet by
// packet, with the impairments the paper reasons about:
//
//  * STO — sampling time offset between unsynchronized sender/receiver
//    clocks; adds a common delay to all paths (Sec. 3.2).
//  * SFO / packet-detection delay — makes the STO vary packet to packet
//    (Sec. 3.2.1), which is what Algorithm 1 must undo.
//  * Common carrier phase offset per packet (unknown carrier phase).
//  * AWGN set by the link budget (per-path powers vs. a noise floor).
//  * 8-bit I/Q quantization with AGC scaling, as the 5300 reports.
//
// The synthesized entry for antenna m, subcarrier n is
//   csi[m][n] = sum_k gamma_k * Omega(tau_k + sto)^n * Phi(theta_k)^m + noise
// which is exactly the signal model of Eq. 1-7.
#pragma once

#include <vector>

#include "channel/multipath.hpp"
#include "common/constants.hpp"
#include "common/rng.hpp"

namespace spotfi {

/// Per-packet channel-state observation, as exported to the SpotFi server.
struct CsiPacket {
  /// antennas x subcarriers complex channel matrix (Eq. 5 layout).
  CMatrix csi;
  /// Received signal strength [dBm] for this packet.
  double rssi_dbm = 0.0;
  /// Capture timestamp [s] (transmission interval spacing).
  double timestamp_s = 0.0;
};

/// Transmit power [dBm]; path gains are relative to this.
inline constexpr double kTxPowerDbm = 15.0;

struct ImpairmentConfig {
  /// Fixed part of the sampling time offset for a link [s].
  double sto_base_s = 50e-9;
  /// Per-packet uniform jitter around the base STO (from SFO drift and
  /// packet-detection delay) [s]; sampled in [-jitter, +jitter].
  double sto_jitter_s = 15e-9;
  /// Apply a random common phase per packet (carrier phase offset).
  bool random_common_phase = true;
  /// Thermal noise floor [dBm] used to derive per-entry SNR.
  double noise_floor_dbm = -92.0;
  /// Log-normal shadowing on the reported RSSI [dB].
  double rssi_shadowing_db = 2.0;
  /// Quantize CSI to 8-bit I/Q (Intel 5300 behaviour).
  bool quantize_8bit = true;
  /// Environmental micro-dynamics: reflected and scattered paths bounce
  /// off objects that wobble at mm-cm scale between packets (people,
  /// doors, chairs), which scrambles their phase (cm motion is a sizable
  /// fraction of the 5.6 cm wavelength) and slightly perturbs their
  /// geometry, while the direct path stays stable. This is what makes
  /// indirect-path AoA/ToF estimates vary across packets (paper Fig. 5(c))
  /// and is the signal behind the Eq. 8 likelihood. Applied per packet to
  /// non-direct paths only.
  double indirect_phase_jitter_rad = 1.2;
  double indirect_gain_jitter_db = 1.0;
  double indirect_tof_jitter_s = 1.0e-9;
  double indirect_aoa_jitter_rad = 0.8 * kPi / 180.0;
  /// Residual per-antenna calibration error after the Phaser-style phase
  /// calibration commodity arrays require: a static phase offset and gain
  /// mismatch per RF chain, drawn once per capture (slow drift) in
  /// synthesize_burst.
  double phase_calibration_sigma_rad = 0.07;  ///< ~4 deg residual
  double gain_calibration_sigma_db = 0.5;
  /// Cap the per-entry SNR so quantization remains the accuracy limit
  /// at short range [dB]. Effective CSI SNR on commodity NICs tops out
  /// around 25-30 dB.
  double max_snr_db = 28.0;
};

/// Synthesizes CSI packets for a fixed multipath profile.
class CsiSynthesizer {
 public:
  CsiSynthesizer(LinkConfig link, ImpairmentConfig impairments);

  /// One packet. The STO for the packet is drawn internally; pass the same
  /// `paths` for consecutive packets from a static target.
  [[nodiscard]] CsiPacket synthesize(std::span<const PathComponent> paths,
                                     double timestamp_s, Rng& rng) const;

  /// A burst of `n_packets` packets spaced `interval_s` apart. Draws one
  /// set of per-antenna calibration residuals (static across the burst)
  /// and applies it to every packet.
  [[nodiscard]] std::vector<CsiPacket> synthesize_burst(
      std::span<const PathComponent> paths, std::size_t n_packets,
      double interval_s, Rng& rng) const;

  /// Noise-free, impairment-free CSI for a path set — the ideal Eq. 4
  /// measurement matrix; used by tests and the spectrum explorer.
  [[nodiscard]] CMatrix ideal_csi(std::span<const PathComponent> paths) const;

  [[nodiscard]] const LinkConfig& link() const { return link_; }
  [[nodiscard]] const ImpairmentConfig& impairments() const {
    return impairments_;
  }

  /// Received power [dBm] of the superposed paths under the configured TX
  /// power (before shadowing) — the mean of the reported RSSI.
  [[nodiscard]] double received_power_dbm(
      std::span<const PathComponent> paths) const;

 private:
  LinkConfig link_;
  ImpairmentConfig impairments_;
};

}  // namespace spotfi
