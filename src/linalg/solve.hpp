// Direct solvers for small dense real systems: Cholesky for SPD matrices
// (the normal equations inside Levenberg-Marquardt and the triangulation
// baselines) and Householder QR for general least squares (no pipeline
// caller: ToF sanitization fits its line in closed form).
//
// Each solver comes in two flavours:
//  * strict — throws NumericalError at the first sign of indefiniteness or
//    rank deficiency (paper-faithful benches and tests that *want* to see
//    degeneracy);
//  * policy — takes a NumericsPolicy and walks the regularized retry
//    ladder (exact -> escalating relative Tikhonov ridge -> truncated
//    pseudo-inverse), reporting every fallback through NumericsCounters.
//    These throw only for inputs no regularization can save (non-finite
//    entries, exhausted ladder).
#pragma once

#include <span>

#include "linalg/matrix.hpp"
#include "linalg/numerics.hpp"

namespace spotfi {

/// Cholesky factor L (lower triangular, A = L L^T) of a symmetric positive
/// definite matrix. Throws NumericalError if A is not positive definite
/// (including when the input contains NaN/Inf).
[[nodiscard]] RMatrix cholesky(const RMatrix& a);

/// Cholesky with the regularized retry ladder: factors A + ridge * I for
/// the smallest ridge on the policy's ladder that is positive definite.
struct RegularizedCholesky {
  RMatrix l;
  /// Absolute ridge added to the diagonal (0.0 = exact factorization).
  double ridge = 0.0;
  /// Ladder attempts consumed (0 = exact path succeeded).
  int attempts = 0;
};
[[nodiscard]] RegularizedCholesky cholesky(const RMatrix& a,
                                           const NumericsPolicy& policy);

/// Solves A x = b for symmetric positive definite A via Cholesky (strict).
[[nodiscard]] RVector solve_spd(const RMatrix& a, std::span<const double> b);

/// Strict workspace variant: the factor and the intermediate solve live on
/// `ws`, the solution is written into `x` (size = A's dimension). The
/// value flavour wraps this one; same arithmetic, same throws.
void solve_spd_into(ConstRMatrixView a, std::span<const double> b,
                    std::span<double> x, Workspace& ws);

/// Policy variant: regularized retry ladder on the factorization.
[[nodiscard]] RVector solve_spd(const RMatrix& a, std::span<const double> b,
                                const NumericsPolicy& policy);

/// Minimizes ||A x - b||_2 for A with rows >= cols and full column rank,
/// using Householder QR. Throws NumericalError on rank deficiency.
[[nodiscard]] RVector lstsq(const RMatrix& a, std::span<const double> b);

/// Strict workspace variant of lstsq: the QR working copy, transformed
/// rhs, and Householder vectors live on `ws`; the solution is written
/// into `x` (size = A's column count). The value flavour wraps this one.
void lstsq_into(ConstRMatrixView a, std::span<const double> b,
                std::span<double> x, Workspace& ws);

/// Policy variant: QR first; on rank deficiency the ridged normal
/// equations (Tikhonov ladder), and finally a truncated-eigenvalue
/// pseudo-inverse (minimum-norm least squares) when the policy allows it.
[[nodiscard]] RVector lstsq(const RMatrix& a, std::span<const double> b,
                            const NumericsPolicy& policy);

}  // namespace spotfi
