// Waveform-level transceiver: the substrate that *produces* CSI.
//
// Everywhere else in the library CSI is synthesized directly from the
// Eq. 1-7 signal model; this module instead walks the physical chain the
// Intel 5300 implements in silicon:
//
//   TX:  known LTF training symbols -> IFFT -> cyclic prefix -> samples
//   air: per-path fractional-sample delay, complex gain, and per-antenna
//        AoA phase; AWGN
//   RX:  packet detection by LTF cross-correlation (the detection point
//        IS the sampling-time offset), FFT, divide by the known training
//        sequence -> channel estimate per subcarrier -> report the 30
//        subcarriers the 5300 exposes
//
// Integration tests confirm the two CSI paths agree, closing the loop on
// the simulator's fidelity: SpotFi's estimators recover the same AoA/ToF
// from waveform-derived CSI as from the analytic model.
#pragma once

#include "channel/multipath.hpp"
#include "common/constants.hpp"
#include "common/rng.hpp"
#include "phy/ofdm.hpp"

namespace spotfi {

struct PhyConfig {
  /// Antenna array geometry and carrier for the AoA phase.
  LinkConfig link = LinkConfig::intel5300_40mhz();
  /// Complex AWGN SNR per receive antenna [dB].
  double snr_db = 30.0;
};

/// A transmitted frame: 96 samples of leading silence plus two LTF
/// symbols.
struct PhyFrame {
  CVector samples;
  /// Sample index where the first LTF symbol's cyclic prefix begins.
  std::size_t frame_start = 0;
};

[[nodiscard]] PhyFrame transmit_ltf_frame();

/// Passes `frame` through the multipath channel: each path delays the
/// waveform by tof_s (fractional-sample, linear interpolation), scales it
/// by its complex gain, and applies the per-antenna AoA phase
/// progression; AWGN is added per antenna at cfg.snr_db. Returns
/// n_antennas streams (antenna-major rows).
[[nodiscard]] CMatrix apply_multipath_channel(
    const PhyFrame& frame, std::span<const PathComponent> paths,
    const PhyConfig& cfg, Rng& rng);

struct PhyCsiResult {
  /// n_antennas x 30 CSI on the 5300's 40 MHz report grid.
  CMatrix csi;
  /// Detected frame start [samples] (compare with PhyFrame::frame_start
  /// to measure the packet-detection delay).
  std::size_t detected_start = 0;
};

/// Receiver: detects the frame, estimates the channel on the occupied
/// subcarriers from the LTF symbols, and reports the 5300's subcarrier
/// subset. Throws DetectionError if no plausible frame is found — a missed
/// detection is a channel outcome, not a numerical failure.
[[nodiscard]] PhyCsiResult receive_csi(const CMatrix& rx_streams);

}  // namespace spotfi
