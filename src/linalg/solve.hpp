// Direct solver for small dense symmetric positive definite systems:
// Cholesky, for the damped normal equations inside Levenberg-Marquardt,
// the triangulation baseline's normal equations and the CRLB's Fisher
// information.
//
// Strict: it throws NumericalError at the first non-positive (or NaN)
// pivot. Levenberg-Marquardt answers that throw by raising its damping;
// the baseline and the CRLB pass it on to their callers, because there
// it means degenerate geometry.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace spotfi {

/// Solves A x = b for symmetric positive definite A via Cholesky. Throws
/// NumericalError if A is not positive definite (including when the
/// input contains NaN/Inf).
[[nodiscard]] RVector solve_spd(const RMatrix& a, std::span<const double> b);

/// Workspace variant: the factor and the intermediate solve live on
/// `ws`, the solution is written into `x` (size = A's dimension). The
/// value flavour wraps this one; same arithmetic, same throws.
void solve_spd_into(ConstRMatrixView a, std::span<const double> b,
                    std::span<double> x, Workspace& ws);

}  // namespace spotfi
