// Signal/noise subspace split for MUSIC and ESPRIT.
//
// Algorithm 2, line 5: "construct E_N whose columns are eigenvectors of
// X X^H corresponding to eigenvalues smaller than a threshold". One
// eigendecomposition yields both halves: the noise basis MUSIC scans and
// the signal basis ESPRIT's shift-invariance solve reads.
#pragma once

#include "linalg/matrix.hpp"

namespace spotfi {

/// Noise dimensions the split always keeps, so the MUSIC spectrum is
/// defined.
inline constexpr std::size_t kMinNoiseDims = 1;

/// The model order is Algorithm 2, line 5's eigenvalue threshold, capped
/// to the signal and noise dimension limits.
struct SubspaceConfig {
  /// Eigenvalues below `relative_threshold * lambda_max` belong to the
  /// noise subspace.
  double relative_threshold = 0.03;
  /// Never assign more than this many dimensions to the signal subspace
  /// (indoor environments show at most ~8 significant paths, Sec. 3.1).
  std::size_t max_signal_dims = 10;
};

/// The split eigenbasis of one covariance. Both bases are column
/// windows of one dim x dim slab of orthonormal eigenvectors (row stride
/// dim), living in the caller's Workspace until its enclosing frame
/// closes.
struct SubspacesRef {
  /// Noise-subspace basis: the eigenvectors of the dim - n_signal
  /// smallest eigenvalues, ascending.
  ConstCMatrixView noise;
  /// Signal-subspace basis: the eigenvectors of the n_signal largest
  /// eigenvalues, ascending.
  ConstCMatrixView signal;
  /// Estimated number of propagation paths (signal dimensions).
  std::size_t n_signal = 0;
  /// Eigenvalues of the covariance, ascending (diagnostics/tests).
  std::span<const double> eigenvalues;
};

/// Splits the eigenvectors of covariance = X X^H (X = measurement matrix)
/// into signal and noise subspaces at the configured model order. The
/// covariance, the eigendecomposition and the split all run on `ws`
/// scratch. Throws NumericalError when the eigendecomposition does not
/// converge.
[[nodiscard]] SubspacesRef noise_subspace(ConstCMatrixView measurement,
                                          const SubspaceConfig& config,
                                          Workspace& ws);

}  // namespace spotfi
