// Gaussian mixture model fitted by expectation-maximization.
//
// Implements the paper's "Gaussian mean clustering algorithm with five
// clusters" (Sec. 3.2.3): the (AoA, ToF) estimates accumulated over
// packets are soft-clustered; each mixture component's mean estimates a
// propagation path's parameters and its variance feeds the direct-path
// likelihood of Eq. 8. Components use diagonal covariance (AoA and ToF
// errors are treated as independent).
#pragma once

#include <vector>

#include "cluster/kmeans.hpp"

namespace spotfi {

struct GmmConfig {
  std::size_t max_iterations = 200;
  /// Stop when the log-likelihood improves by less than this.
  double log_likelihood_tolerance = 1e-7;
  /// Absolute variance floor keeping components from collapsing onto one
  /// point.
  double variance_floor = 1e-8;
  /// Relative variance floor: per dimension, the effective floor is
  /// max(variance_floor, relative_variance_floor * data variance in that
  /// dimension). Keeps the floor meaningful when the data lives at a scale
  /// where 1e-8 is either enormous or invisible.
  double relative_variance_floor = 1e-10;
};

struct GmmComponent {
  RVector mean;      ///< D-dim component mean
  RVector variance;  ///< D-dim diagonal covariance
  double weight = 0.0;
};

struct GmmResult {
  std::vector<GmmComponent> components;
  /// Hard assignment (most responsible component) per point.
  std::vector<std::size_t> assignment;
  /// Total data log-likelihood at convergence.
  double log_likelihood = 0.0;
  std::size_t iterations = 0;
};

/// Fits a `k`-component diagonal GMM to the rows of `points` (n x D),
/// initialized from k-means++. The effective component count can be
/// smaller than `k` when there are fewer distinct points. EM scratch
/// (responsibilities, per-point log probabilities, variance floors) and
/// the k-means initialization's iteration buffers live on `ws`; only the
/// returned result allocates.
[[nodiscard]] GmmResult fit_gmm(ConstRMatrixView points, std::size_t k,
                                Rng& rng, const GmmConfig& config,
                                Workspace& ws);

}  // namespace spotfi
