// The per-packet estimate stages (see stage.hpp for the contract). Each
// is a thin, immutable adapter over one super-resolution estimator; which
// one a fallback or shed rung runs is the only step of the per-AP
// sequence that varies.
#pragma once

#include <span>

#include "music/esprit.hpp"
#include "music/estimators.hpp"
#include "pipeline/stage.hpp"

namespace spotfi {

/// One packet's CSI -> path estimates. This is the substitution point
/// of the fallback/shed ladder: which concrete estimate stage a rung
/// runs IS the fidelity decision (MUSIC full grid, MUSIC relaxed grid,
/// ESPRIT).
class PacketEstimateStage {
 public:
  virtual ~PacketEstimateStage() = default;

  /// Writes at most max_paths() estimates into `out`, returns the
  /// count. `out` must hold at least max_paths() entries.
  [[nodiscard]] virtual std::size_t run_into(
      const StageContext& ctx, ConstCMatrixView csi,
      std::span<PathEstimate> out) const = 0;
  [[nodiscard]] virtual std::size_t max_paths() const = 0;
};

/// MUSIC estimate: the estimator's two stage entry points, metered as
/// kSubspace (smoothing + eigendecomposition + split) and kSpectrum
/// (grid sweep + peaks) so per-phase telemetry attributes the
/// eig-vs-sweep split. No frame of its own: intermediates and outputs
/// live in the caller's frame (the per-packet frame ApProcessor opens).
class MusicEstimateStage final : public PacketEstimateStage {
 public:
  explicit MusicEstimateStage(const JointMusicEstimator& est) : est_(&est) {}

  [[nodiscard]] std::size_t run_into(
      const StageContext& ctx, ConstCMatrixView csi,
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
      const StageContext& ctx, ConstCMatrixView csi,
      std::span<PathEstimate> out) const override {
    StageMeter meter(ctx, StagePhase::kSubspace);
    return est_->estimate_into(csi, *ctx.ws, out);
  }

  [[nodiscard]] std::size_t max_paths() const override {
    return est_->config().max_paths;
  }

 private:
  const JointEspritEstimator* est_;
};

}  // namespace spotfi
