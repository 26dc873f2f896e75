// Direct-path identification (Sec. 3.2).
//
// SpotFi accumulates the (AoA, ToF) estimates of every MUSIC peak over a
// group of packets, normalizes both axes into a common range (Fig. 5(c)),
// clusters them ("Gaussian mean clustering with five clusters"), and
// scores each cluster with the likelihood of Eq. 8:
//
//   likelihood_k = exp(w_C*C_k - w_th*sigma_theta_k - w_tau*sigma_tau_k
//                      - w_s*tau_bar_k)
//
// Direct paths form tight, populous, early-ToF clusters; reflections are
// loose and late. The paper's compared selection rules (smallest ToF =
// LTEye, strongest spectrum power = CUPID, oracle) are provided for the
// Fig. 8(b) reproduction.
#pragma once

#include <vector>

#include "cluster/gmm.hpp"
#include "common/constants.hpp"
#include "music/estimators.hpp"

namespace spotfi {

/// One clustered propagation path, aggregated over a packet group.
struct ClusterSummary {
  double mean_aoa_rad = 0.0;
  double mean_tof_s = 0.0;
  /// Population standard deviations in *normalized* units (both axes
  /// scaled into [-1, 1]), so the Eq. 8 weights share a scale.
  double sigma_aoa = 0.0;
  double sigma_tof = 0.0;
  /// Number of per-packet estimates in the cluster (C_k in Eq. 8).
  std::size_t count = 0;
  /// Mean MUSIC spectrum power of the cluster's members (CUPID's metric).
  double mean_power = 0.0;
  /// Eq. 8 likelihood.
  double likelihood = 0.0;
};

struct DirectPathConfig {
  /// Number of clusters; the paper uses five (at best five significant
  /// paths indoors).
  std::size_t n_clusters = 5;
};

/// Clusters per-packet path estimates with the Gaussian mixture
/// (k-means++ initialized) and scores each cluster with Eq. 8. AoA is
/// normalized by pi/2 and ToF by half the unambiguous ToF period.
/// Returns clusters sorted by likelihood, descending (the first entry is
/// SpotFi's direct-path choice). Requires at least one estimate.
/// `n_packets` is the size of the packet group the estimates were pooled
/// from; it normalizes the count term (pass 1 to use raw counts). The
/// normalized point matrix, the clustering scratch and the per-cluster
/// accumulators live on `ws`; only the returned summaries (and the
/// clusterers' own result structs) allocate.
[[nodiscard]] std::vector<ClusterSummary> cluster_path_estimates(
    std::span<const PathEstimate> estimates, const LinkConfig& link,
    std::size_t n_packets, Rng& rng, const DirectPathConfig& config,
    Workspace& ws);

/// Selection rules compared in Fig. 8(b). Each returns an index into
/// `clusters` (which must be non-empty).
[[nodiscard]] std::size_t select_spotfi(
    std::span<const ClusterSummary> clusters);
[[nodiscard]] std::size_t select_smallest_tof(
    std::span<const ClusterSummary> clusters);  ///< LTEye's rule
[[nodiscard]] std::size_t select_strongest(
    std::span<const ClusterSummary> clusters);  ///< CUPID's rule
[[nodiscard]] std::size_t select_oracle(
    std::span<const ClusterSummary> clusters, double true_aoa_rad);

}  // namespace spotfi
