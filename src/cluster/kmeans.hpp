// k-means clustering with k-means++ seeding.
//
// Used directly for quick clustering and as the initializer for the
// Gaussian-mixture EM that implements the paper's "Gaussian mean
// clustering" of (AoA, ToF) estimates (Sec. 3.2.3). Points are D-dim rows
// of a matrix; SpotFi uses D = 2 (normalized AoA, normalized ToF).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace spotfi {

struct KMeansConfig {
  std::size_t max_iterations = 100;
  /// Converged when no assignment changes between iterations.
  double centroid_tolerance = 1e-9;
};

struct KMeansResult {
  /// k x D centroid matrix (k can shrink if there are fewer distinct
  /// points than requested clusters).
  RMatrix centroids;
  /// Cluster index per input point.
  std::vector<std::size_t> assignment;
  /// Sum of squared distances to assigned centroids.
  double inertia = 0.0;
  std::size_t iterations = 0;
};

/// Clusters the rows of `points` (n x D) into at most `k` clusters.
/// Requires n >= 1, k >= 1. Deterministic given the RNG state. All
/// iteration scratch (seeding distances, counts, the per-iteration
/// centroid accumulator) lives on `ws`, so the loop allocates nothing —
/// only the returned result touches the heap.
[[nodiscard]] KMeansResult kmeans(ConstRMatrixView points, std::size_t k,
                                  Rng& rng, const KMeansConfig& config,
                                  Workspace& ws);

}  // namespace spotfi
