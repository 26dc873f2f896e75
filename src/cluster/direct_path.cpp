#include "cluster/direct_path.hpp"

#include <algorithm>
#include <cmath>

#include "music/steering.hpp"

namespace spotfi {

std::vector<ClusterSummary> cluster_path_estimates(
    std::span<const PathEstimate> estimates, const LinkConfig& link,
    std::size_t n_packets, Rng& rng, const DirectPathConfig& config,
    Workspace& ws) {
  SPOTFI_EXPECTS(!estimates.empty(), "need at least one path estimate");
  SPOTFI_EXPECTS(config.n_clusters >= 1, "need at least one cluster");
  SPOTFI_EXPECTS(n_packets >= 1, "need at least one packet");

  // Normalize both axes into [-1, 1] so cluster geometry and the Eq. 8
  // weights are scale-free (Fig. 5(c): "ToF and AoA values are normalized
  // so that their values lie in the same range").
  const double aoa_scale = kPi / 2.0;
  const double tof_scale = std::isnan(config.tof_scale_s)
                               ? tof_period(link) / 2.0
                               : config.tof_scale_s;
  SPOTFI_EXPECTS(tof_scale > 0.0, "ToF scale must be positive");

  Workspace::Frame frame(ws);
  const RMatrixView points = workspace_matrix<double>(ws, estimates.size(), 2);
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    points(i, 0) = estimates[i].aoa_rad / aoa_scale;
    points(i, 1) = estimates[i].tof_s / tof_scale;
  }

  std::vector<std::size_t> assignment;
  std::size_t k_eff = 0;
  if (config.use_gmm) {
    GmmResult gmm =
        fit_gmm(ConstRMatrixView(points), config.n_clusters, rng, {}, ws);
    assignment = std::move(gmm.assignment);
    k_eff = gmm.components.size();
  } else {
    KMeansResult km =
        kmeans(ConstRMatrixView(points), config.n_clusters, rng, {}, ws);
    assignment = std::move(km.assignment);
    k_eff = km.centroids.rows();
  }

  // Per-cluster statistics on the *hard* assignment: Eq. 8 uses the
  // population variance of the members.
  struct Acc {
    double sum_aoa = 0.0, sum_tof = 0.0;
    double sum_aoa2 = 0.0, sum_tof2 = 0.0;
    double sum_power = 0.0;
    std::size_t n = 0;
  };
  const std::span<Acc> acc = ws.take<Acc>(k_eff);
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    Acc& a = acc[assignment[i]];
    const double na = points(i, 0);
    const double nt = points(i, 1);
    a.sum_aoa += na;
    a.sum_tof += nt;
    a.sum_aoa2 += na * na;
    a.sum_tof2 += nt * nt;
    a.sum_power += estimates[i].power;
    ++a.n;
  }

  std::vector<ClusterSummary> clusters;
  clusters.reserve(k_eff);
  for (const Acc& a : acc) {
    if (a.n == 0) continue;
    const double n = static_cast<double>(a.n);
    ClusterSummary c;
    const double mean_aoa_n = a.sum_aoa / n;
    const double mean_tof_n = a.sum_tof / n;
    c.mean_aoa_rad = mean_aoa_n * aoa_scale;
    c.mean_tof_s = mean_tof_n * tof_scale;
    c.sigma_aoa =
        std::sqrt(std::max(a.sum_aoa2 / n - mean_aoa_n * mean_aoa_n, 0.0));
    c.sigma_tof =
        std::sqrt(std::max(a.sum_tof2 / n - mean_tof_n * mean_tof_n, 0.0));
    c.count = a.n;
    c.mean_power = a.sum_power / n;
    clusters.push_back(c);
  }
  // Eq. 8. The sanitized ToF axis has an arbitrary per-group origin (the
  // STO fit), so the mean-ToF term is measured relative to the earliest
  // cluster: "higher ToF signifies lower likelihood" either way, but the
  // relative form is invariant to the fit's offset.
  double min_mean_tof_n = std::numeric_limits<double>::max();
  for (const auto& c : clusters) {
    min_mean_tof_n = std::min(min_mean_tof_n, c.mean_tof_s / tof_scale);
  }
  for (auto& c : clusters) {
    const double hits_per_packet =
        static_cast<double>(c.count) / static_cast<double>(n_packets);
    const double rel_tof_n = c.mean_tof_s / tof_scale - min_mean_tof_n;
    c.likelihood = std::exp(config.w_count * hits_per_packet -
                            config.w_sigma_aoa * c.sigma_aoa -
                            config.w_sigma_tof * c.sigma_tof -
                            config.w_mean_tof * rel_tof_n);
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const ClusterSummary& a, const ClusterSummary& b) {
              return a.likelihood > b.likelihood;
            });
  return clusters;
}

std::size_t select_spotfi(std::span<const ClusterSummary> clusters) {
  SPOTFI_EXPECTS(!clusters.empty(), "no clusters to select from");
  std::size_t best = 0;
  for (std::size_t i = 1; i < clusters.size(); ++i) {
    if (clusters[i].likelihood > clusters[best].likelihood) best = i;
  }
  return best;
}

std::size_t select_smallest_tof(std::span<const ClusterSummary> clusters) {
  SPOTFI_EXPECTS(!clusters.empty(), "no clusters to select from");
  std::size_t best = 0;
  for (std::size_t i = 1; i < clusters.size(); ++i) {
    if (clusters[i].mean_tof_s < clusters[best].mean_tof_s) best = i;
  }
  return best;
}

std::size_t select_strongest(std::span<const ClusterSummary> clusters) {
  SPOTFI_EXPECTS(!clusters.empty(), "no clusters to select from");
  std::size_t best = 0;
  for (std::size_t i = 1; i < clusters.size(); ++i) {
    if (clusters[i].mean_power > clusters[best].mean_power) best = i;
  }
  return best;
}

std::size_t select_oracle(std::span<const ClusterSummary> clusters,
                          double true_aoa_rad) {
  SPOTFI_EXPECTS(!clusters.empty(), "no clusters to select from");
  std::size_t best = 0;
  for (std::size_t i = 1; i < clusters.size(); ++i) {
    if (std::abs(clusters[i].mean_aoa_rad - true_aoa_rad) <
        std::abs(clusters[best].mean_aoa_rad - true_aoa_rad)) {
      best = i;
    }
  }
  return best;
}

}  // namespace spotfi
