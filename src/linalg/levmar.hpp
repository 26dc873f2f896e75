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
};

struct LevMarResult {
  RVector x;
  double cost = 0.0;  ///< 0.5 * ||r||^2 at the solution.
  int iterations = 0;
  bool converged = false;
  /// True when the run was abandoned because the current point (not just a
  /// trial) had non-finite residuals/cost, or damping blew past its cap
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
