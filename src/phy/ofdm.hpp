// 802.11n-style OFDM numerology and training symbols for the waveform
// substrate.
//
// A 40 MHz HT channel: 128-point FFT at 40 Msps (312.5 kHz subcarrier
// spacing), occupied subcarriers at indices -58..58 with DC null (116;
// the standard also nulls +-1, which the 5300's report grid never
// samples), 1/4 cyclic prefix. The long training field (LTF) carries a
// known +-1 sequence on the occupied subcarriers; dividing the received
// LTF by it yields the channel estimate the NIC quantizes into CSI.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace spotfi {

/// FFT size and cyclic prefix [samples].
inline constexpr std::size_t kFftSize = 128;
inline constexpr std::size_t kCyclicPrefix = 32;
/// Sample rate [Hz].
inline constexpr double kSampleRateHz = 40e6;
/// Highest occupied subcarrier index (+-).
inline constexpr int kMaxOccupied = 58;
static_assert(kMaxOccupied > 0 &&
                  static_cast<std::size_t>(kMaxOccupied) < kFftSize / 2,
              "occupied band exceeds the FFT size");

/// Subcarrier spacing [Hz]: 312.5 kHz.
inline constexpr double kSubcarrierSpacingHz =
    kSampleRateHz / static_cast<double>(kFftSize);
/// Samples per OFDM symbol, cyclic prefix included.
inline constexpr std::size_t kSymbolSamples = kFftSize + kCyclicPrefix;

/// Occupied subcarrier indices (negative and positive, DC excluded).
[[nodiscard]] std::vector<int> occupied_subcarriers();

/// FFT bin for a (possibly negative) subcarrier index.
[[nodiscard]] std::size_t bin_of(int subcarrier_index);

/// Deterministic +-1 training sequence on the occupied subcarriers
/// (one value per entry of occupied_subcarriers()).
[[nodiscard]] std::vector<double> ltf_sequence();

/// Time-domain LTF symbol with cyclic prefix (kSymbolSamples samples),
/// unit average power.
[[nodiscard]] CVector ltf_time_symbol();

}  // namespace spotfi
