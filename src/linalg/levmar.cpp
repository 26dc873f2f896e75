#include "linalg/levmar.hpp"

#include <cmath>
#include <utility>

#include "linalg/numerics.hpp"
#include "linalg/solve.hpp"

namespace spotfi {
namespace {

/// Damping: starting value, and the factors an uphill (up) or accepted
/// (down) trial applies to it.
constexpr double kInitialLambda = 1e-3;
constexpr double kLambdaUp = 10.0;
constexpr double kLambdaDown = 0.5;
/// Stop when the step norm falls below this.
constexpr double kStepTolerance = 1e-10;
/// Stop when the cost improvement ratio falls below this.
constexpr double kCostTolerance = 1e-12;
/// Relative step size for the finite-difference Jacobian: the step for
/// parameter j is kFdStep * max(|x[j]|, 1). Both callers in the library
/// solve over (x, y) in metres, where a unit floor fits.
constexpr double kFdStep = 1e-6;
/// Trust guard: reject any trial step whose norm exceeds this factor
/// times the current parameter scale (prevents a near-singular normal
/// system from catapulting the iterate into a non-finite region).
constexpr double kMaxStepFactor = 1e4;
/// Trust guard: once damping has been driven above this the system is
/// hopeless; stop instead of spinning the attempt loop.
constexpr double kMaxLambda = 1e12;

double half_squared_norm(std::span<const double> r) {
  double s = 0.0;
  for (double v : r) s += v * v;
  return 0.5 * s;
}

bool all_finite(std::span<const double> v) {
  for (const double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

bool all_finite(ConstRMatrixView a) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (const double v : a.row(i)) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

/// Central-difference Jacobian written into a caller-provided slab. `xp`
/// is the perturbed-parameter scratch (size n), `rp`/`rm` the two probes'
/// residuals (size m).
void finite_difference_jacobian(const ResidualFn& f,
                                std::span<const double> x, RMatrixView j,
                                std::span<double> xp, std::span<double> rp,
                                std::span<double> rm) {
  std::copy(x.begin(), x.end(), xp.begin());
  for (std::size_t col = 0; col < x.size(); ++col) {
    const double step = kFdStep * std::max(std::abs(x[col]), 1.0);
    const double orig = xp[col];
    xp[col] = orig + step;
    f(xp, rp);
    xp[col] = orig - step;
    f(xp, rm);
    xp[col] = orig;
    for (std::size_t row = 0; row < rp.size(); ++row)
      j(row, col) = (rp[row] - rm[row]) / (2.0 * step);
  }
}

}  // namespace

LevMarResult levenberg_marquardt(const ResidualFn& residuals, std::size_t m,
                                 std::span<const double> x0,
                                 const LevMarOptions& options) {
  return levenberg_marquardt(residuals, m, x0, options, thread_workspace());
}

LevMarResult levenberg_marquardt(const ResidualFn& residuals, std::size_t m,
                                 std::span<const double> x0,
                                 const LevMarOptions& options, Workspace& ws) {
  SPOTFI_EXPECTS(!x0.empty(), "levenberg_marquardt requires parameters");
  SPOTFI_EXPECTS(m >= x0.size(),
                 "need at least as many residuals as parameters");
  SPOTFI_EXPECTS(options.max_iterations > 0, "max_iterations must be > 0");

  LevMarResult result;
  result.x.assign(x0.begin(), x0.end());

  if (!all_finite(result.x)) {
    result.diverged = true;
    result.reason = "non-finite initial parameters";
    count_numerics(&NumericsCounters::levmar_poisoned);
    return result;
  }

  // All buffers are taken once and fully overwritten on every use, so
  // the iterations cost zero allocations; the residual function writes
  // into them.
  const std::size_t n = x0.size();
  Workspace::Frame frame(ws);
  std::span<double> r = ws.take<double>(m);
  std::span<double> r_try = ws.take<double>(m);
  const std::span<double> fd_rp = ws.take<double>(m);
  const std::span<double> fd_rm = ws.take<double>(m);
  const RMatrixView j = workspace_matrix<double>(ws, m, n);
  const RMatrixView jtj = workspace_matrix<double>(ws, n, n);
  const RMatrixView damped = workspace_matrix<double>(ws, n, n);
  const std::span<double> jtr = ws.take<double>(n);
  const std::span<double> neg_jtr = ws.take<double>(n);
  const std::span<double> dx = ws.take<double>(n);
  const std::span<double> x_try = ws.take<double>(n);
  const std::span<double> fd_x = ws.take<double>(n);

  residuals(result.x, r);
  result.cost = half_squared_norm(r);
  if (!all_finite(r) || !std::isfinite(result.cost)) {
    // The start itself sits in a non-finite region; there is no finite
    // gradient to follow out of it.
    result.diverged = true;
    result.reason = "non-finite residuals at the initial point";
    count_numerics(&NumericsCounters::levmar_poisoned);
    return result;
  }

  double lambda = kInitialLambda;

  // Characteristic parameter scale for the step-size trust guard.
  double x_scale = 1.0;
  for (const double v : result.x) x_scale = std::max(x_scale, std::abs(v));

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    finite_difference_jacobian(residuals, result.x, j, fd_x, fd_rp, fd_rm);
    if (!all_finite(ConstRMatrixView(j))) {
      // The current point is finite but its neighborhood is not (FD probes
      // crossed into a NaN region). No usable descent direction exists.
      result.diverged = true;
      result.reason = "non-finite Jacobian";
      count_numerics(&NumericsCounters::levmar_poisoned);
      return result;
    }

    // Normal equations: (J^T J + lambda * diag(J^T J)) dx = -J^T r.
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a; b < n; ++b) {
        double s = 0.0;
        for (std::size_t row = 0; row < m; ++row) s += j(row, a) * j(row, b);
        jtj(a, b) = jtj(b, a) = s;
      }
      double s = 0.0;
      for (std::size_t row = 0; row < m; ++row) s += j(row, a) * r[row];
      jtr[a] = s;
    }

    bool stepped = false;
    bool saw_nonfinite_trial = false;
    for (int attempt = 0; attempt < 12 && !stepped; ++attempt) {
      if (lambda > kMaxLambda) break;
      for (std::size_t a = 0; a < n; ++a) {
        const auto src = jtj.row(a);
        std::copy(src.begin(), src.end(), damped.row(a).begin());
        damped(a, a) += lambda * std::max(jtj(a, a), 1e-12);
      }
      for (std::size_t a = 0; a < n; ++a) neg_jtr[a] = -jtr[a];

      try {
        solve_spd_into(ConstRMatrixView(damped), neg_jtr, dx, ws);
      } catch (const NumericalError&) {
        count_numerics(&NumericsCounters::levmar_solve_failed);
        lambda *= kLambdaUp;
        continue;
      }
      const double step_norm = norm2(std::span<const double>(dx));
      if (!std::isfinite(step_norm) ||
          step_norm > kMaxStepFactor * x_scale) {
        // Trust guard: a near-singular system produced an absurd step;
        // treat it like an uphill trial and damp harder.
        count_numerics(&NumericsCounters::levmar_solve_failed);
        lambda *= kLambdaUp;
        continue;
      }

      for (std::size_t a = 0; a < n; ++a) x_try[a] = result.x[a] + dx[a];
      residuals(x_try, r_try);
      const double cost_try = half_squared_norm(r_try);
      if (!all_finite(r_try) || !std::isfinite(cost_try)) {
        // Stepped into a non-finite region: reject and shrink the step.
        ++result.nonfinite_trials;
        saw_nonfinite_trial = true;
        count_numerics(&NumericsCounters::levmar_nonfinite_trials);
        lambda *= kLambdaUp;
        continue;
      }

      if (cost_try < result.cost) {
        const double improvement =
            (result.cost - cost_try) / std::max(result.cost, 1e-300);
        std::copy(x_try.begin(), x_try.end(), result.x.begin());
        std::swap(r, r_try);
        result.cost = cost_try;
        lambda = std::max(lambda * kLambdaDown, 1e-12);
        stepped = true;
        if (step_norm < kStepTolerance || improvement < kCostTolerance) {
          result.converged = true;
          return result;
        }
      } else {
        lambda *= kLambdaUp;
      }
    }
    if (!stepped) {
      if (saw_nonfinite_trial) {
        // Every surviving trial this iteration was non-finite: the iterate
        // is pinned against a NaN/Inf wall, not at a genuine minimum.
        result.diverged = true;
        result.reason = "surrounded by non-finite residuals";
        count_numerics(&NumericsCounters::levmar_poisoned);
        return result;
      }
      // Damping maxed out without improvement: local minimum.
      result.converged = true;
      return result;
    }
  }
  return result;
}

}  // namespace spotfi
