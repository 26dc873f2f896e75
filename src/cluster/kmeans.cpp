#include "cluster/kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace spotfi {
namespace {

double squared_distance(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// k-means++ seeding: first centroid uniform, then each next centroid
/// drawn with probability proportional to squared distance from the
/// nearest chosen centroid. Fills at most `seeds.size()` entries of the
/// caller's buffer; returns the count actually seeded.
std::size_t seed_kmeanspp(ConstRMatrixView points, Rng& rng,
                          std::span<std::size_t> seeds, std::span<double> d2) {
  const std::size_t n = points.rows();
  std::size_t n_seeds = 0;
  seeds[n_seeds++] = rng.uniform_index(n);
  std::fill(d2.begin(), d2.end(), std::numeric_limits<double>::max());
  while (n_seeds < seeds.size()) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      d2[i] = std::min(
          d2[i], squared_distance(points.row(i), points.row(seeds[n_seeds - 1])));
      total += d2[i];
    }
    if (total <= 0.0) break;  // all remaining points coincide with seeds
    double pick = rng.uniform() * total;
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      pick -= d2[i];
      if (pick <= 0.0) {
        chosen = i;
        break;
      }
    }
    seeds[n_seeds++] = chosen;
  }
  return n_seeds;
}

}  // namespace

KMeansResult kmeans(ConstRMatrixView points, std::size_t k, Rng& rng,
                    const KMeansConfig& config, Workspace& ws) {
  SPOTFI_EXPECTS(points.rows() >= 1, "kmeans needs at least one point");
  SPOTFI_EXPECTS(k >= 1, "kmeans needs at least one cluster");
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  k = std::min(k, n);

  Workspace::Frame frame(ws);
  const std::span<std::size_t> seed_buf = ws.take<std::size_t>(k);
  const std::span<double> d2_buf = ws.take<double>(n);
  const std::size_t k_eff = seed_kmeanspp(points, rng, seed_buf, d2_buf);
  RMatrix centroids(k_eff, dim);
  for (std::size_t c = 0; c < k_eff; ++c) {
    const auto row = points.row(seed_buf[c]);
    std::copy(row.begin(), row.end(), centroids.row(c).begin());
  }

  KMeansResult result;
  result.assignment.assign(n, 0);
  const std::span<std::size_t> counts = ws.take<std::size_t>(k_eff);
  // Hoisted centroid accumulator: zeroed each iteration instead of
  // reallocated (the value-initialized RMatrix it replaces started at
  // zero too, so the sums are unchanged).
  const RMatrixView next = workspace_matrix<double>(ws, k_eff, dim);
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Assign.
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t best = 0;
      double best_d2 = std::numeric_limits<double>::max();
      for (std::size_t c = 0; c < k_eff; ++c) {
        const double d2 = squared_distance(points.row(i), centroids.row(c));
        if (d2 < best_d2) {
          best_d2 = d2;
          best = c;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;
    // Update.
    for (std::size_t c = 0; c < k_eff; ++c) {
      std::fill(next.row(c).begin(), next.row(c).end(), 0.0);
    }
    std::fill(counts.begin(), counts.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = result.assignment[i];
      ++counts[c];
      for (std::size_t d = 0; d < dim; ++d) next(c, d) += points(i, d);
    }
    for (std::size_t c = 0; c < k_eff; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: keep the previous centroid.
        std::copy(centroids.row(c).begin(), centroids.row(c).end(),
                  next.row(c).begin());
        continue;
      }
      for (std::size_t d = 0; d < dim; ++d) {
        next(c, d) /= static_cast<double>(counts[c]);
      }
    }
    double shift = 0.0;
    for (std::size_t c = 0; c < k_eff; ++c) {
      for (std::size_t d = 0; d < dim; ++d) {
        shift = std::max(shift, std::abs(next(c, d) - centroids(c, d)));
      }
    }
    for (std::size_t c = 0; c < k_eff; ++c) {
      std::copy(next.row(c).begin(), next.row(c).end(),
                centroids.row(c).begin());
    }
    if (shift < config.centroid_tolerance) break;
  }

  result.inertia = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    result.inertia +=
        squared_distance(points.row(i), centroids.row(result.assignment[i]));
  }
  result.centroids = std::move(centroids);
  return result;
}

}  // namespace spotfi
