// Levenberg-Marquardt nonlinear least squares.
//
// SpotFi's localization step (Algorithm 2, line 12) minimizes the
// non-convex objective of Eq. 9 over the target location and the path-loss
// model parameters. The paper uses "sequential convex optimization"; our
// solver realizes the same idea — repeatedly linearize the residuals and
// solve a damped convex quadratic — which is exactly Levenberg-Marquardt.
// Multi-start (handled by the caller) deals with local minima.
//
// Failure semantics: the solver never throws for numerical trouble and
// never returns non-finite parameters. Non-finite trial points are
// rejected like any uphill step (damping increases); a non-finite cost at
// the *current* point — poisoned residuals the solver cannot step away
// from — ends the run with `diverged = true` and a reason string. Callers
// doing multi-start must treat `diverged` starts as unusable regardless of
// their recorded cost.
#pragma once

#include <functional>
#include <string>

#include "linalg/matrix.hpp"

namespace spotfi {

/// Residual function: given parameters x (size n), writes the residuals
/// into r, whose size is the residual count m >= n passed to the solver.
/// It must write all m values on every call. The objective minimized is
/// 0.5 * ||r(x)||^2; the Jacobian is central differences.
using ResidualFn =
    std::function<void(std::span<const double> x, std::span<double> r)>;

struct LevMarOptions {
  int max_iterations = 100;
  double initial_lambda = 1e-3;
  double lambda_up = 10.0;
  double lambda_down = 0.5;
  /// Stop when the step norm falls below this.
  double step_tolerance = 1e-10;
  /// Stop when the cost improvement ratio falls below this.
  double cost_tolerance = 1e-12;
  /// Relative step size for the finite-difference Jacobian. The actual
  /// step for parameter j is fd_step * max(|x[j]|, scale_j) where scale_j
  /// comes from `fd_scales` (1.0 when unset).
  double fd_step = 1e-6;
  /// Per-parameter characteristic scales for the finite-difference step.
  /// Empty means every parameter uses scale 1.0. Parameters whose natural
  /// magnitude is far from 1 (e.g. ToF values around 1e-8 s) need their
  /// scale here or the FD step swamps (or never perturbs) the parameter.
  RVector fd_scales;
  /// Trust guard: reject any trial step whose norm exceeds this factor
  /// times the current parameter scale (prevents a near-singular normal
  /// system from catapulting the iterate into a non-finite region).
  double max_step_factor = 1e4;
  /// Trust guard: once damping has been driven above this the system is
  /// hopeless; stop instead of spinning the attempt loop.
  double max_lambda = 1e12;
};

struct LevMarResult {
  RVector x;
  double cost = 0.0;  ///< 0.5 * ||r||^2 at the solution.
  int iterations = 0;
  bool converged = false;
  /// True when the run was abandoned because the current point (not just a
  /// trial) had non-finite residuals/cost, or damping blew past max_lambda
  /// with non-finite trials in flight. `x`/`cost` are then the last finite
  /// state when one exists, but must not be treated as a solution.
  bool diverged = false;
  /// Human-readable cause when diverged (empty otherwise).
  std::string reason;
  /// Trial evaluations rejected because they produced non-finite
  /// residuals. Nonzero with diverged == false means the solver skirted a
  /// non-finite region and still finished on finite ground.
  std::size_t nonfinite_trials = 0;
};

/// Minimizes 0.5*||r(x)||^2 over m residuals starting from x0.
[[nodiscard]] LevMarResult levenberg_marquardt(
    const ResidualFn& residuals, std::size_t m, std::span<const double> x0,
    const LevMarOptions& options = {});

/// Workspace variant: the current and trial residuals, both
/// finite-difference probes, the Jacobian and the normal equations live
/// on `ws` (taken once per call, reused across iterations); only the
/// result's `x` allocates. The default overload wraps this one; results
/// are bit-identical.
[[nodiscard]] LevMarResult levenberg_marquardt(
    const ResidualFn& residuals, std::size_t m, std::span<const double> x0,
    const LevMarOptions& options, Workspace& ws);

}  // namespace spotfi
