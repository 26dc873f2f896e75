// Concrete stages wrapping the SpotFi kernels (see stage.hpp for the
// contract). Each stage is a thin, immutable adapter over an existing
// kernel or estimator — the staged path and the monolithic value path
// run the same code and stay bit-identical.
#pragma once

#include <span>
#include <vector>

#include "csi/sanitize.hpp"
#include "localize/spotfi_localizer.hpp"
#include "music/esprit.hpp"
#include "music/estimators.hpp"
#include "pipeline/direct_path.hpp"
#include "pipeline/stage.hpp"

namespace spotfi {

/// Algorithm 1 phase sanitization. Pass-through when disabled (the
/// Fig. 5 ablation), still typed as a stage so the pipeline composition
/// is unconditional.
class SanitizeStage final : public Stage<ConstCMatrixView, ConstCMatrixView> {
 public:
  SanitizeStage(LinkConfig link, bool enabled)
      : link_(link), enabled_(enabled) {}

  [[nodiscard]] StagePhase phase() const override {
    return StagePhase::kSanitize;
  }
  [[nodiscard]] const char* name() const override { return "sanitize"; }

 private:
  [[nodiscard]] ConstCMatrixView do_run(StageContext& ctx,
                                        const ConstCMatrixView& in)
      const override {
    if (!enabled_) return in;
    return ConstCMatrixView(sanitize_tof(in, link_, *ctx.ws));
  }

  LinkConfig link_;
  bool enabled_;
};

/// One packet's CSI -> path estimates. This is the substitution point
/// of the fallback/shed ladder: which concrete estimate stage the
/// pipeline runs IS the fidelity decision (MUSIC full grid, MUSIC
/// relaxed grid, ESPRIT), replacing the former ad-hoc branches.
class PacketEstimateStage {
 public:
  virtual ~PacketEstimateStage() = default;

  /// Writes at most max_paths() estimates into `out`, returns the
  /// count. `out` must hold at least max_paths() entries.
  [[nodiscard]] virtual std::size_t run_into(
      StageContext& ctx, ConstCMatrixView csi,
      std::span<PathEstimate> out) const = 0;
  [[nodiscard]] virtual std::size_t max_paths() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

/// MUSIC estimate: the estimator's two stage entry points, metered as
/// kSubspace (smoothing + eigendecomposition + split) and kSpectrum
/// (grid sweep + peaks) so per-phase telemetry attributes the
/// eig-vs-sweep split. No frame of its own: intermediates and outputs
/// live in the caller's frame (the per-packet frame the pipeline opens).
class MusicEstimateStage final : public PacketEstimateStage {
 public:
  explicit MusicEstimateStage(const JointMusicEstimator& est) : est_(&est) {}

  [[nodiscard]] std::size_t run_into(
      StageContext& ctx, ConstCMatrixView csi,
      std::span<PathEstimate> out) const override {
    SubspacesRef sub;
    {
      StageMeter meter(ctx, StagePhase::kSubspace);
      sub = est_->stage_subspace(csi, *ctx.ws);
    }
    StageMeter meter(ctx, StagePhase::kSpectrum);
    return est_->stage_spectrum(sub, *ctx.ws, out);
  }

  [[nodiscard]] std::size_t max_paths() const override {
    return est_->config().max_paths;
  }
  [[nodiscard]] const char* name() const override { return "music"; }

 private:
  const JointMusicEstimator* est_;
};

/// Search-free shift-invariance estimate (the ESPRIT fallback rung).
/// Metered whole under kSubspace: ESPRIT is eigendecomposition-
/// dominated and has no grid sweep.
class EspritEstimateStage final : public PacketEstimateStage {
 public:
  explicit EspritEstimateStage(const JointEspritEstimator& est)
      : est_(&est) {}

  [[nodiscard]] std::size_t run_into(
      StageContext& ctx, ConstCMatrixView csi,
      std::span<PathEstimate> out) const override {
    StageMeter meter(ctx, StagePhase::kSubspace);
    return est_->estimate_into(csi, *ctx.ws, out);
  }

  [[nodiscard]] std::size_t max_paths() const override {
    return est_->config().max_paths;
  }
  [[nodiscard]] const char* name() const override { return "esprit"; }

 private:
  const JointEspritEstimator* est_;
};

struct ClusterIn {
  std::span<const PathEstimate> pooled;
  std::size_t n_packets = 0;
};

/// Sec. 3.2 clustering of the pooled group estimates (Eq. 8 scoring).
/// Consumes ctx.rng — the only randomness in the per-AP pipeline.
class ClusterStage final
    : public Stage<ClusterIn, std::vector<ClusterSummary>> {
 public:
  ClusterStage(LinkConfig link, DirectPathConfig config)
      : link_(link), config_(config) {}

  [[nodiscard]] StagePhase phase() const override {
    return StagePhase::kCluster;
  }
  [[nodiscard]] const char* name() const override { return "cluster"; }

 private:
  [[nodiscard]] std::vector<ClusterSummary> do_run(
      StageContext& ctx, const ClusterIn& in) const override {
    return cluster_path_estimates(in.pooled, link_, in.n_packets, *ctx.rng,
                                  config_, *ctx.ws);
  }

  LinkConfig link_;
  DirectPathConfig config_;
};

struct DirectPathIn {
  std::span<const ClusterSummary> clusters;
  const ArrayPose* pose = nullptr;
  double rssi_dbm = 0.0;
};

/// Direct-path selection (Eq. 8 argmax) folded into the fusion-ready
/// ApObservation. Pure; metered under kCluster with the clustering it
/// concludes.
class DirectPathStage final : public Stage<DirectPathIn, ApObservation> {
 public:
  [[nodiscard]] StagePhase phase() const override {
    return StagePhase::kCluster;
  }
  [[nodiscard]] const char* name() const override { return "direct-path"; }

 private:
  [[nodiscard]] ApObservation do_run(StageContext& /*ctx*/,
                                     const DirectPathIn& in) const override {
    const std::size_t pick = select_spotfi(in.clusters);
    ApObservation obs;
    obs.pose = *in.pose;
    obs.direct_aoa_rad = in.clusters[pick].mean_aoa_rad;
    obs.likelihood = in.clusters[pick].likelihood;
    obs.rssi_dbm = in.rssi_dbm;
    return obs;
  }
};

/// Eq. 9 AP fusion. Wraps a borrowed localizer so the server's primary
/// solve and its leave-one-out re-solves run through one stage (and
/// one telemetry bucket).
class LocalizeStage final
    : public Stage<std::span<const ApObservation>, LocationEstimate> {
 public:
  explicit LocalizeStage(const SpotFiLocalizer& localizer)
      : localizer_(&localizer) {}

  [[nodiscard]] StagePhase phase() const override {
    return StagePhase::kLocalize;
  }
  [[nodiscard]] const char* name() const override { return "localize"; }

 private:
  [[nodiscard]] LocationEstimate do_run(
      StageContext& ctx,
      const std::span<const ApObservation>& in) const override {
    return localizer_->locate(in, *ctx.ws);
  }

  const SpotFiLocalizer* localizer_;
};

}  // namespace spotfi
