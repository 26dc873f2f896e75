#include "linalg/solve.hpp"

#include <cmath>

namespace spotfi {
namespace {

/// Factors A = L L^T into a caller-provided slab whose upper triangle must
/// arrive zeroed (workspace checkouts are).
void cholesky_into(ConstRMatrixView a, RMatrixView l) {
  SPOTFI_EXPECTS(a.rows() == a.cols(), "cholesky requires a square matrix");
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        // !(sum > 0) also catches NaN pivots, so a poisoned input fails
        // here instead of silently propagating NaN through the factor.
        if (!(sum > 0.0)) {
          throw NumericalError("cholesky: matrix is not positive definite");
        }
        l(i, j) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
}

}  // namespace

RVector solve_spd(const RMatrix& a, std::span<const double> b) {
  RVector x(b.size());
  solve_spd_into(ConstRMatrixView(a), b, x, thread_workspace());
  return x;
}

void solve_spd_into(ConstRMatrixView a, std::span<const double> b,
                    std::span<double> x, Workspace& ws) {
  SPOTFI_EXPECTS(a.rows() == b.size(), "solve_spd shape mismatch");
  SPOTFI_EXPECTS(x.size() == a.cols(), "solve_spd solution size mismatch");
  const std::size_t n = a.rows();
  Workspace::Frame frame(ws);
  const RMatrixView l = workspace_matrix<double>(ws, n, n);
  cholesky_into(a, l);
  const std::span<double> y = ws.take<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
}

}  // namespace spotfi
