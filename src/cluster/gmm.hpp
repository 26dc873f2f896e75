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
/// initialized from k-means++. EM stops when the log-likelihood gain falls
/// below a fixed tolerance, and per dimension the component variances keep
/// an absolute and a data-relative floor (constants of gmm.cpp), so no
/// component collapses onto one point. The effective component count can
/// be smaller than `k` when there are fewer distinct points. EM scratch
/// (responsibilities, per-point log probabilities, variance floors) and
/// the k-means initialization's iteration buffers live on `ws`; only the
/// returned result allocates.
[[nodiscard]] GmmResult fit_gmm(ConstRMatrixView points, std::size_t k,
                                Rng& rng, const GmmConfig& config,
                                Workspace& ws);

}  // namespace spotfi
