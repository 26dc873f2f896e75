#include "phy/transceiver.hpp"

#include <algorithm>
#include <cmath>

#include "phy/fft.hpp"

namespace spotfi {
namespace {

/// Leading silence before the frame [samples]; the receiver's search for
/// the frame start models the packet-detection delay.
constexpr std::size_t kLeadSilence = 96;
/// Number of LTF training symbols (averaged at the receiver).
constexpr std::size_t kLtfSymbols = 2;

}  // namespace

PhyFrame transmit_ltf_frame() {
  const CVector symbol = ltf_time_symbol();
  PhyFrame frame;
  frame.samples.assign(kLeadSilence, cplx{});
  frame.frame_start = kLeadSilence;
  for (std::size_t s = 0; s < kLtfSymbols; ++s) {
    frame.samples.insert(frame.samples.end(), symbol.begin(), symbol.end());
  }
  // Trailing pad so delayed copies fit.
  frame.samples.insert(frame.samples.end(), kFftSize, cplx{});
  return frame;
}

CMatrix apply_multipath_channel(const PhyFrame& frame,
                                std::span<const PathComponent> paths,
                                const PhyConfig& cfg, Rng& rng) {
  SPOTFI_EXPECTS(!paths.empty(), "need at least one path");
  const std::size_t n_ant = cfg.link.n_antennas;
  const std::size_t n = frame.samples.size();

  // Exact fractional delays: apply each path as the all-pass
  // e^(-j*2*pi*f*tau) in the frequency domain of the zero-padded frame
  // (padding prevents circular wrap of the largest delay).
  std::size_t n_fft = 1;
  while (n_fft < 2 * n) n_fft <<= 1;
  CVector tx_freq(n_fft, cplx{});
  std::copy(frame.samples.begin(), frame.samples.end(), tx_freq.begin());
  fft_in_place(tx_freq, false);

  CMatrix rx(n_ant, n);
  CVector accum(n_fft);
  for (std::size_t m = 0; m < n_ant; ++m) {
    std::fill(accum.begin(), accum.end(), cplx{});
    for (const auto& path : paths) {
      SPOTFI_EXPECTS(path.tof_s >= 0.0, "negative path delay");
      SPOTFI_EXPECTS(path.tof_s * kSampleRateHz <
                         static_cast<double>(n_fft - n),
                     "path delay exceeds the frame padding");
      const double phi_arg = -2.0 * kPi * cfg.link.antenna_spacing_m *
                             std::sin(path.aoa_rad) * cfg.link.carrier_hz /
                             kSpeedOfLight;
      const cplx g = path.complex_gain() *
                     std::polar(1.0, phi_arg * static_cast<double>(m));
      // Baseband frequency of FFT bin k (negative above n_fft/2).
      const double df = kSampleRateHz / static_cast<double>(n_fft);
      const cplx rot =
          std::polar(1.0, -2.0 * kPi * df * path.tof_s);
      // Walk bins 0..n/2 with the positive-frequency phasor and mirror
      // the negative frequencies.
      cplx phasor{1.0, 0.0};
      for (std::size_t k = 0; k <= n_fft / 2; ++k) {
        accum[k] += g * phasor * tx_freq[k];
        if (k != 0 && k != n_fft / 2) {
          accum[n_fft - k] += g * std::conj(phasor) * tx_freq[n_fft - k];
        }
        phasor *= rot;
      }
    }
    fft_in_place(accum, true);
    for (std::size_t t = 0; t < n; ++t) rx(m, t) = accum[t];
  }

  // AWGN at the configured SNR relative to the strongest path's power
  // (LTF symbols have unit average power at the transmitter).
  double max_gain = 0.0;
  for (const auto& p : paths) {
    max_gain = std::max(max_gain, std::norm(p.complex_gain()));
  }
  const double noise_power = max_gain * std::pow(10.0, -cfg.snr_db / 10.0);
  const double sigma = std::sqrt(noise_power / 2.0);
  for (auto& v : rx.flat()) {
    v += cplx(rng.normal(0.0, sigma), rng.normal(0.0, sigma));
  }
  return rx;
}

PhyCsiResult receive_csi(const CMatrix& rx_streams) {
  const std::size_t n_ant = rx_streams.rows();
  const std::size_t n = rx_streams.cols();
  const std::size_t frame_len = kLtfSymbols * kSymbolSamples;
  SPOTFI_EXPECTS(n >= frame_len, "receive stream shorter than one frame");

  // Packet detection: cross-correlate antenna 0 with the known LTF core.
  const CVector symbol = ltf_time_symbol();
  const std::span<const cplx> core(symbol.data() + kCyclicPrefix, kFftSize);
  double core_energy = 0.0;
  for (const auto& v : core) core_energy += std::norm(v);

  std::vector<double> corr(n - frame_len + 1, 0.0);
  const auto rx0 = rx_streams.row(0);
  for (std::size_t p = 0; p + frame_len <= n; ++p) {
    cplx acc{};
    for (std::size_t t = 0; t < kFftSize; ++t) {
      acc += rx0[p + kCyclicPrefix + t] * std::conj(core[t]);
    }
    corr[p] = std::abs(acc);
  }
  const auto peak_it = std::max_element(corr.begin(), corr.end());
  if (*peak_it <= 1e-9 * core_energy) {
    throw DetectionError("receive_csi: no frame detected");
  }
  std::size_t start = static_cast<std::size_t>(peak_it - corr.begin());
  // The repeated LTF produces equal peaks one symbol apart; take the
  // earliest one of comparable height.
  while (start >= kSymbolSamples &&
         corr[start - kSymbolSamples] >= 0.8 * corr[start]) {
    start -= kSymbolSamples;
  }

  // Channel estimation: average the per-symbol estimates.
  const auto occupied = occupied_subcarriers();
  const auto seq = ltf_sequence();
  CMatrix channel(n_ant, occupied.size());
  for (std::size_t s = 0; s < kLtfSymbols; ++s) {
    const std::size_t sym_start = start + s * kSymbolSamples + kCyclicPrefix;
    SPOTFI_EXPECTS(sym_start + kFftSize <= n, "detected frame runs off end");
    for (std::size_t m = 0; m < n_ant; ++m) {
      CVector time(kFftSize);
      for (std::size_t t = 0; t < kFftSize; ++t) {
        time[t] = rx_streams(m, sym_start + t);
      }
      fft_in_place(time, false);
      for (std::size_t i = 0; i < occupied.size(); ++i) {
        channel(m, i) += time[bin_of(occupied[i])] / seq[i];
      }
    }
  }
  const double inv = 1.0 / static_cast<double>(kLtfSymbols);
  for (auto& v : channel.flat()) v *= inv;

  // Report the Intel 5300's 30-subcarrier subset (every 4th occupied
  // index from -58 to 58, skipping DC).
  PhyCsiResult result;
  result.detected_start = start;
  std::vector<std::size_t> report;
  for (std::size_t i = 0; i < occupied.size(); ++i) {
    const int k = occupied[i];
    if (k % 4 == 2 || k % 4 == -2) report.push_back(i);
  }
  SPOTFI_ASSERT(report.size() == 30, "unexpected report subset size");
  result.csi = CMatrix(n_ant, report.size());
  for (std::size_t m = 0; m < n_ant; ++m) {
    for (std::size_t j = 0; j < report.size(); ++j) {
      result.csi(m, j) = channel(m, report[j]);
    }
  }
  return result;
}

}  // namespace spotfi
