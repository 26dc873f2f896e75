// Experiment runner: drives the full measurement pipeline of Sec. 4 —
// targets transmit packet bursts, each AP captures impaired CSI through
// the channel simulator, the SpotFi server (and optionally the
// ArrayTrack-style baseline) localizes, and errors are collected.
#pragma once

#include <optional>
#include <vector>

#include "core/server.hpp"
#include "localize/baselines.hpp"
#include "phy/phy_csi_source.hpp"
#include "testbed/deployment.hpp"

namespace spotfi {

struct ExperimentConfig {
  /// Packets per localization group (the paper chops traces into groups
  /// of 40; Fig. 9(b) varies this down to 6).
  std::size_t packets_per_group = 15;
  ImpairmentConfig impairments{};
  /// Algorithm 2 fuses every AP; it has no outlier-AP step, so the
  /// figures run the served round with leave-one-out rejection off. The
  /// runner always takes the localizer's search area from the
  /// deployment, whatever `server.localizer` names.
  ServerConfig server = [] {
    ServerConfig cfg;
    cfg.fusion.loo_rejection = false;
    return cfg;
  }();
  /// Use only the first `ap_subset` APs (0 = all) — Fig. 9(a)'s density
  /// emulation picks subsets externally via `ap_indices`.
  std::vector<std::size_t> ap_indices;  ///< empty = all APs
  /// Generate CSI through the full OFDM waveform chain (phy/) instead of
  /// the analytic Eq. 1-7 synthesizer: LTF transmission, multipath
  /// convolution, packet detection, channel estimation. Slower but
  /// validates the whole model (bench/ablation_csi_source).
  bool use_phy_waveform = false;
};

/// Ground truth bookkeeping for one AP in one run.
struct ApGroundTruth {
  /// Apparent AoA of the geometric direct path (even when obstructed) —
  /// the value a ULA can report, aliased into [-pi/2, pi/2] [rad].
  double direct_aoa_rad = 0.0;
  bool line_of_sight = false;
  /// True when the simulator kept the direct path above its power floor.
  bool direct_path_present = false;
};

struct TargetRun {
  Vec2 truth;
  LocalizationRound round;
  double error_m = 0.0;
  std::vector<ApGroundTruth> ap_truth;   ///< parallel to used APs
  std::vector<ApCapture> captures;       ///< the raw per-AP packet groups
};

class ExperimentRunner {
 public:
  ExperimentRunner(LinkConfig link, Deployment deployment,
                   ExperimentConfig config = {});

  /// Synthesizes the per-AP captures for one target (shared by SpotFi and
  /// the baselines, as in the paper's method).
  [[nodiscard]] std::vector<ApCapture> simulate_captures(Vec2 target,
                                                         Rng& rng) const;

  /// Full SpotFi pipeline for one target: SpotFiServer::try_localize on
  /// freshly simulated captures. The figures measure Algorithm 2, so a
  /// failed or degraded round (an AP past its primary estimator, an AP
  /// rejected) throws NumericalError carrying the round's reason.
  [[nodiscard]] TargetRun run_target(Vec2 target, Rng& rng) const;

  /// ArrayTrack-style baseline on already-simulated captures: per packet
  /// MUSIC-AoA spectra averaged per AP, fused by spectrum product.
  [[nodiscard]] Vec2 arraytrack_baseline(std::span<const ApCapture> captures,
                                         const MusicAoaConfig& cfg = {}) const;

  [[nodiscard]] const Deployment& deployment() const { return deployment_; }
  [[nodiscard]] const ExperimentConfig& config() const { return config_; }
  [[nodiscard]] const LinkConfig& link() const { return link_; }
  /// The AP poses actually used (after ap_indices selection).
  [[nodiscard]] std::vector<ArrayPose> used_aps() const;
  /// Ground-truth info for each used AP for a given target.
  [[nodiscard]] std::vector<ApGroundTruth> ground_truth(Vec2 target) const;

 private:
  LinkConfig link_;
  Deployment deployment_;
  ExperimentConfig config_;
  /// Path enumeration at the link's carrier.
  MultipathConfig multipath_;
};

/// Convenience: extract the error series from a set of runs.
[[nodiscard]] std::vector<double> error_series(
    std::span<const TargetRun> runs);

}  // namespace spotfi
