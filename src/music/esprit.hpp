// Joint AoA/ToF estimation by shift invariance (ESPRIT / JADE family).
//
// The paper's super-resolution step uses 2-D MUSIC; the literature it
// builds on (Van der Veen et al. [42], Vanderveen et al. [43]) solves the
// same problem search-free by exploiting the smoothed matrix's two shift
// invariances: rows shifted by one subcarrier scale signal components by
// Omega(tau_k), rows shifted by one antenna scale them by Phi(theta_k).
// Estimating the two shift operators on the signal subspace and jointly
// diagonalizing them yields paired (theta_k, tau_k) without any grid —
// an order of magnitude faster than the spectrum sweep, at the cost of
// more sensitivity to subspace errors. Provided as an alternative
// estimator and compared in bench/ablation_estimator.
#pragma once

#include "csi/smoothing.hpp"
#include "music/estimators.hpp"

namespace spotfi {

struct EspritConfig {
  SmoothingConfig smoothing{};
  SubspaceConfig subspace{};
  /// Keep at most this many paths (signal dimensions).
  std::size_t max_paths = 8;
};

class JointEspritEstimator {
 public:
  JointEspritEstimator(LinkConfig link, EspritConfig config = {});

  /// Estimates the multipath (AoA, ToF) pairs of one packet's CSI.
  /// `power` of each estimate is the least-squares path amplitude squared
  /// (comparable across paths of one packet, unlike MUSIC's spectrum
  /// height).
  [[nodiscard]] std::vector<PathEstimate> estimate(const CMatrix& csi) const;

  /// Zero-allocation packet path: the smoothed matrix, the one
  /// eigendecomposition (whose signal half noise_subspace returns
  /// alongside the model order) and the shift-operator and path-power
  /// solves all run on `ws` scratch. Writes at most `config().max_paths`
  /// estimates into `out` and returns the count. Bit-identical to
  /// estimate(), which wraps this path.
  [[nodiscard]] std::size_t estimate_into(ConstCMatrixView csi, Workspace& ws,
                                          std::span<PathEstimate> out) const;

  [[nodiscard]] const EspritConfig& config() const { return config_; }

 private:
  LinkConfig link_;
  EspritConfig config_;
};

}  // namespace spotfi
