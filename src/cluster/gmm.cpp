#include "cluster/gmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/constants.hpp"
#include "linalg/numerics.hpp"

namespace spotfi {
namespace {

/// EM stops when the log-likelihood improves by less than this.
constexpr double kLogLikelihoodTolerance = 1e-7;
/// Absolute variance floor keeping components from collapsing onto one
/// point.
constexpr double kVarianceFloor = 1e-8;
/// Relative variance floor: per dimension, the effective floor is
/// max(kVarianceFloor, kRelativeVarianceFloor * data variance in that
/// dimension). Keeps the floor meaningful when the data lives at a scale
/// where 1e-8 is either enormous or invisible.
constexpr double kRelativeVarianceFloor = 1e-10;

/// log N(x | mean, diag(var)).
double log_gaussian(std::span<const double> x, const GmmComponent& c) {
  double acc = 0.0;
  for (std::size_t d = 0; d < x.size(); ++d) {
    const double diff = x[d] - c.mean[d];
    acc += -0.5 * std::log(2.0 * kPi * c.variance[d]) -
           0.5 * diff * diff / c.variance[d];
  }
  return acc;
}

double log_sum_exp(std::span<const double> v) {
  const double m = *std::max_element(v.begin(), v.end());
  if (!std::isfinite(m)) return m;
  double s = 0.0;
  for (double x : v) s += std::exp(x - m);
  return m + std::log(s);
}

}  // namespace

GmmResult fit_gmm(ConstRMatrixView points, std::size_t k, Rng& rng,
                  const GmmConfig& config, Workspace& ws) {
  SPOTFI_EXPECTS(points.rows() >= 1, "fit_gmm needs at least one point");
  SPOTFI_EXPECTS(k >= 1, "fit_gmm needs at least one component");
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();

  Workspace::Frame frame(ws);
  // Per-dimension data variance fixes the scale of the relative floor.
  const std::span<double> floor_d = ws.take<double>(dim);
  std::fill(floor_d.begin(), floor_d.end(), kVarianceFloor);
  bool degenerate_data = n >= 2;
  {
    const std::span<double> data_mean = ws.take<double>(dim);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t d = 0; d < dim; ++d) data_mean[d] += points(i, d);
    for (auto& m : data_mean) m /= static_cast<double>(n);
    for (std::size_t d = 0; d < dim; ++d) {
      double var = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double diff = points(i, d) - data_mean[d];
        var += diff * diff;
      }
      var /= static_cast<double>(n);
      if (std::isfinite(var)) {
        floor_d[d] = std::max(kVarianceFloor, kRelativeVarianceFloor * var);
      }
      if (!(var < kVarianceFloor)) degenerate_data = false;
    }
  }
  // Coincident input — the whole dataset has (sub-floor) zero spread in
  // every dimension, so the fit is pinned at the variance floor and the
  // component "shapes" carry no information. A single *component* hitting
  // the floor is routine (grid-quantized estimates coincide by design);
  // all-points-coincident is the numerical event worth reporting.
  if (degenerate_data) {
    count_numerics(&NumericsCounters::gmm_variance_floored);
  }

  // Initialize from k-means: means = centroids, variances = per-cluster
  // scatter, weights = cluster fractions.
  const KMeansResult km = kmeans(points, k, rng, ws);
  const std::size_t k_eff = km.centroids.rows();

  GmmResult result;
  result.components.resize(k_eff);
  const std::span<std::size_t> counts = ws.take<std::size_t>(k_eff);
  for (std::size_t c = 0; c < k_eff; ++c) {
    auto& comp = result.components[c];
    comp.mean.assign(km.centroids.row(c).begin(), km.centroids.row(c).end());
    comp.variance.assign(floor_d.begin(), floor_d.end());
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = km.assignment[i];
    ++counts[c];
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = points(i, d) - result.components[c].mean[d];
      result.components[c].variance[d] += diff * diff;
    }
  }
  for (std::size_t c = 0; c < k_eff; ++c) {
    const double cnt = std::max<double>(1.0, static_cast<double>(counts[c]));
    for (std::size_t d = 0; d < dim; ++d) {
      auto& v = result.components[c].variance[d];
      v = std::max(v / cnt, floor_d[d]);
    }
    result.components[c].weight =
        static_cast<double>(std::max<std::size_t>(counts[c], 1)) /
        static_cast<double>(n);
  }

  // EM iterations with log-space responsibilities.
  const RMatrixView resp = workspace_matrix<double>(ws, n, k_eff);
  const std::span<double> logp = ws.take<double>(k_eff);
  double prev_ll = -std::numeric_limits<double>::max();
  for (std::size_t iter = 0; iter < config.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // E step.
    double ll = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < k_eff; ++c) {
        logp[c] = std::log(std::max(result.components[c].weight, 1e-300)) +
                  log_gaussian(points.row(i), result.components[c]);
      }
      const double lse = log_sum_exp(logp);
      ll += lse;
      for (std::size_t c = 0; c < k_eff; ++c) {
        resp(i, c) = std::exp(logp[c] - lse);
      }
    }
    if (!std::isfinite(ll)) {
      // A poisoned likelihood means the responsibilities this iteration are
      // garbage; keep the last consistent parameters instead of smearing
      // NaN through the M step.
      count_numerics(&NumericsCounters::gmm_nonfinite);
      break;
    }
    result.log_likelihood = ll;
    // M step.
    for (std::size_t c = 0; c < k_eff; ++c) {
      double nk = 0.0;
      for (std::size_t i = 0; i < n; ++i) nk += resp(i, c);
      auto& comp = result.components[c];
      if (nk < 1e-12) {
        comp.weight = 1e-12;
        continue;  // component died; keep its parameters frozen
      }
      comp.weight = nk / static_cast<double>(n);
      for (std::size_t d = 0; d < dim; ++d) {
        double mean = 0.0;
        for (std::size_t i = 0; i < n; ++i) mean += resp(i, c) * points(i, d);
        comp.mean[d] = mean / nk;
      }
      for (std::size_t d = 0; d < dim; ++d) {
        double var = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double diff = points(i, d) - comp.mean[d];
          var += resp(i, c) * diff * diff;
        }
        comp.variance[d] = std::max(var / nk, floor_d[d]);
      }
    }
    if (ll - prev_ll < kLogLikelihoodTolerance && iter > 0) break;
    prev_ll = ll;
  }

  // Hard assignment by maximum responsibility.
  result.assignment.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < k_eff; ++c) {
      if (resp(i, c) > resp(i, best)) best = c;
    }
    result.assignment[i] = best;
  }
  return result;
}

}  // namespace spotfi
