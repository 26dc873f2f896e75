// Smoothed CSI construction (Fig. 4) — SpotFi's key mathematical trick.
//
// The 90 CSI values of one packet (3 antennas x 30 subcarriers) are a
// single snapshot: a rank-one measurement that MUSIC cannot use directly.
// Shifted copies of a fixed sensor subarray (15 subcarriers x 2 antennas)
// see the same steering vectors scaled by path-dependent factors, so
// stacking them as columns yields a measurement matrix whose column count
// exceeds the number of paths while the steering matrix stays skinny —
// exactly the conditions MUSIC needs (Sec. 3.1.2).
//
// Row ordering matches Eq. 7 / Fig. 4: antenna-major, i.e. rows
// [a*sub_len + s] carry the phase factor Phi^a * Omega^s; this is what
// lets the joint steering vector factor as ant(theta) (x) sub(tau), which
// music/ exploits for fast spectrum evaluation.
#pragma once

#include "linalg/matrix.hpp"

namespace spotfi {

struct SmoothingConfig {
  /// Subcarriers per subarray (15 for the paper's 30-subcarrier config).
  std::size_t sub_len = 15;
  /// Antennas per subarray (2 for the paper's 3-antenna config).
  std::size_t ant_len = 2;
};

/// Number of rows of the smoothed matrix: sub_len * ant_len.
[[nodiscard]] std::size_t smoothed_rows(const SmoothingConfig& cfg);

/// Number of columns: all shifts, (N - sub_len + 1) * (M - ant_len + 1).
/// For the paper's 30x3 CSI and the 15x2 subarray this is 16*2 = 32 (the
/// paper's Fig. 4 caption rounds this to 30; the construction is the one
/// depicted).
[[nodiscard]] std::size_t smoothed_cols(std::size_t n_antennas,
                                        std::size_t n_subcarriers,
                                        const SmoothingConfig& cfg);

/// Builds the smoothed CSI matrix from one packet's antennas x subcarriers
/// CSI. Column (da, ds) holds the subarray starting at antenna da,
/// subcarrier ds; columns are ordered antenna-shift-major to match Fig. 4.
/// With sub_len = 1 this is the antenna-only forward spatial smoothing of
/// Sec. 3.1.1: every subcarrier of every antenna subarray is one
/// snapshot. With the full array as well it is the CSI itself, the
/// classic MUSIC baseline's measurement matrix.
[[nodiscard]] CMatrix smoothed_csi(const CMatrix& csi,
                                   const SmoothingConfig& cfg = {});

/// Arena variant: the smoothed matrix is checked out of `ws` and lives
/// until the caller's enclosing frame closes. Identical layout/values.
[[nodiscard]] CMatrixView smoothed_csi(ConstCMatrixView csi, Workspace& ws,
                                       const SmoothingConfig& cfg = {});

}  // namespace spotfi
