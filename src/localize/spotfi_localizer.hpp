// SpotFi's localization step (Sec. 3.3, Algorithm 2 line 12).
//
// Finds the target location minimizing the likelihood-weighted deviation
// between predicted and observed AoA/RSSI at every AP (Eq. 9):
//
//   sum_i l_i [ w_p * (p_bar_i(x) - p_i)^2 + w_th * (th_bar_i(x) - th_i)^2 ]
//
// jointly over the location and the path-loss model parameters (p0,
// exponent), so no RSSI calibration is required. The objective is
// non-convex in the location; the paper applies sequential convex
// optimization, realized here as multi-start Levenberg-Marquardt (each LM
// step solves one convexified quadratic) seeded from a coarse grid over
// the search area.
#pragma once

#include <vector>

#include "geom/vec2.hpp"
#include "linalg/levmar.hpp"
#include "localize/observation.hpp"
#include "localize/pathloss.hpp"

namespace spotfi {

/// Multi-start seed grid resolution per axis (plus the AP centroid).
inline constexpr std::size_t kSeedGrid = 5;
/// Relative weight of the RSSI residual (w_p in the notation above).
inline constexpr double kRssiWeight = 0.35;
/// Relative weight of the AoA residual (w_th) [1/rad].
inline constexpr double kAoaWeight = 12.0;
/// Soft area constraint: residual weight per meter outside the search
/// box. Keeps the (unconstrained) LM solve from running away to an
/// out-of-building optimum that a pair of consistent wrong bearings can
/// create — the constrained optimum is then found *on* the boundary
/// instead of being clamped to it afterwards.
inline constexpr double kAreaPenaltyPerM = 8.0;

struct LocalizerConfig {
  /// Search-area bounds [m].
  Vec2 area_min{0.0, 0.0};
  Vec2 area_max{20.0, 20.0};
  /// Exponent applied to the Eq. 8 likelihoods when used as fusion
  /// weights: w_i = l_i^gamma. Raising gamma sharpens the contrast
  /// between confident and doubtful APs (gamma = 1 is the paper's plain
  /// l_i weighting). A setting, not a constant: a compile-time 2.0 lets
  /// the compiler fold std::pow(l, 2.0) into l * l, which differs from
  /// the library pow in the last bit on some likelihoods and would move
  /// fixes.
  double likelihood_exponent = 2.0;
  /// Huber scale for the AoA residual [rad]: deviations beyond this
  /// contribute linearly instead of quadratically, bounding the influence
  /// of an AP whose direct-path pick is plain wrong. 0 disables. A
  /// setting paired with likelihood_exponent: gamma = 1 with 0 here is
  /// the paper's plain weighted least squares (DESIGN.md §6).
  double aoa_huber_rad = 0.1;
  /// Initial path-loss parameters (also optimized per Algorithm 2).
  PathLossModel initial_path_loss{};
  /// Bounds keeping the fitted path-loss exponent physical.
  double min_exponent = 1.2;
  double max_exponent = 6.0;
};

struct LocationEstimate {
  Vec2 position;
  /// Fitted path-loss model at the solution.
  PathLossModel path_loss;
  /// Final value of the Eq. 9 objective.
  double cost = 0.0;
  bool converged = false;
  /// Multi-start bookkeeping: seeds attempted, and seeds whose LM run was
  /// rejected (diverged, or finished on a non-finite cost/position). A
  /// rejected start never wins the multi-start comparison, whatever its
  /// recorded cost.
  std::size_t starts_tried = 0;
  std::size_t starts_rejected = 0;
};

class SpotFiLocalizer {
 public:
  explicit SpotFiLocalizer(LocalizerConfig config = {});

  /// Localizes from >= 2 AP observations. Observations with non-positive
  /// likelihood are ignored; throws ContractViolation if fewer than two
  /// remain, and NumericalError if *every* multi-start seed diverged (the
  /// observations are numerically unusable — e.g. non-finite RSSI).
  [[nodiscard]] LocationEstimate locate(
      std::span<const ApObservation> observations) const;

  /// Workspace variant: the per-AP term table, the per-point distances,
  /// the multi-start seed grid and the LM solver scratch (residuals,
  /// finite-difference probes, Jacobian, normal equations) live on `ws`,
  /// frame-scoped; only each start's `LevMarResult::x` allocates. The
  /// value flavour wraps this one; results are identical.
  [[nodiscard]] LocationEstimate locate(
      std::span<const ApObservation> observations, Workspace& ws) const;

  /// The Eq. 9 objective at a given location/path-loss (diagnostics and
  /// tests), evaluated by the kernel behind `locate`'s residuals. Scratch
  /// comes from thread_workspace().
  [[nodiscard]] double objective(std::span<const ApObservation> observations,
                                 Vec2 location,
                                 const PathLossModel& model) const;

  [[nodiscard]] const LocalizerConfig& config() const { return config_; }

 private:
  LocalizerConfig config_;
};

}  // namespace spotfi
