#include "phy/ofdm.hpp"

#include <cmath>

#include "phy/fft.hpp"

namespace spotfi {

std::vector<int> occupied_subcarriers() {
  std::vector<int> indices;
  for (int k = -kMaxOccupied; k <= kMaxOccupied; ++k) {
    if (k != 0) indices.push_back(k);
  }
  return indices;
}

std::size_t bin_of(int subcarrier_index) {
  SPOTFI_EXPECTS(std::abs(subcarrier_index) <
                     static_cast<int>(kFftSize / 2),
                 "subcarrier index out of range");
  return subcarrier_index >= 0
             ? static_cast<std::size_t>(subcarrier_index)
             : kFftSize + static_cast<std::size_t>(subcarrier_index);
}

std::vector<double> ltf_sequence() {
  // Deterministic +-1 values from a tiny LCG so TX and RX agree without
  // sharing state; mimics the standard's fixed LTF sign pattern.
  const auto occupied = occupied_subcarriers();
  std::vector<double> seq;
  seq.reserve(occupied.size());
  std::uint32_t state = 0x1337u;
  for (std::size_t i = 0; i < occupied.size(); ++i) {
    state = state * 1664525u + 1013904223u;
    seq.push_back((state >> 16) & 1u ? 1.0 : -1.0);
  }
  return seq;
}

CVector ltf_time_symbol() {
  const auto occupied = occupied_subcarriers();
  const auto seq = ltf_sequence();
  CVector freq(kFftSize, cplx{});
  for (std::size_t i = 0; i < occupied.size(); ++i) {
    freq[bin_of(occupied[i])] = cplx(seq[i], 0.0);
  }
  CVector time = ifft(freq);
  // Normalize to unit average power.
  double power = 0.0;
  for (const auto& v : time) power += std::norm(v);
  power /= static_cast<double>(time.size());
  const double scale = 1.0 / std::sqrt(std::max(power, 1e-300));
  for (auto& v : time) v *= scale;
  // Prepend the cyclic prefix.
  CVector symbol;
  symbol.reserve(kSymbolSamples);
  symbol.insert(symbol.end(), time.end() - kCyclicPrefix, time.end());
  symbol.insert(symbol.end(), time.begin(), time.end());
  return symbol;
}

}  // namespace spotfi
