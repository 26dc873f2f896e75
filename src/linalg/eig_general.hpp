// General (non-Hermitian) complex eigendecomposition for small dense
// matrices, plus the complex LU solver it and ESPRIT share.
//
// The shift-invariance (ESPRIT/JADE) joint estimator diagonalizes small
// non-Hermitian matrices of size L x L (L = number of paths, <= ~10):
// eigenvalues carry Omega(tau_k)/Phi(theta_k) and the eigenvector basis
// pairs the two parameter sets. Implementation: Householder reduction to
// upper Hessenberg, shifted complex QR iteration for eigenvalues, inverse
// iteration (on the strict LU solve) for eigenvectors.
//
// Failure semantics: eig_general never throws for convergence. Near-
// defective shift-invariance operators (coherent paths) can stall the QR
// iteration; the result then carries `converged = false` plus a residual
// diagnostic, and the stall is counted in
// NumericsCounters::eig_general_nonconverged.
#pragma once

#include "linalg/matrix.hpp"

namespace spotfi {

/// Solves A x = b for a general square complex matrix via LU with partial
/// pivoting. The LU working copy lives on `ws`, the solution is written
/// into `x` (size = A's dimension, must not alias `b`). Throws
/// NumericalError if A is singular to working precision; `x` then holds
/// partially eliminated scratch.
void solve_complex_into(ConstCMatrixView a, std::span<const cplx> b,
                        std::span<cplx> x, Workspace& ws);

/// solve_complex_into that survives a singular pivot: it retries on
/// A + ridge I with a relative Tikhonov ridge of 1e-12 max|A|, grown
/// x100 per retry for at most 6 retries, counting the fallback in
/// NumericsCounters::solve_regularized. The damped copies live on `ws`.
/// Throws only for non-finite inputs or an exhausted ladder.
void solve_complex_regularized_into(ConstCMatrixView a,
                                    std::span<const cplx> b,
                                    std::span<cplx> x, Workspace& ws);

/// Result of eig_general(): the eigenvalue span and eigenvector view are
/// checked out of the Workspace passed to eig_general() and stay valid
/// until the caller's enclosing frame closes (or the arena resets).
struct GeneralEigRef {
  /// Eigenvalues in the order discovered by the QR iteration.
  std::span<cplx> eigenvalues;
  /// Unit-norm right eigenvectors; column k pairs with eigenvalues[k].
  CMatrixView eigenvectors;
  /// False when the QR iteration stalled before deflating every
  /// eigenvalue; eigenvalues/eigenvectors are then approximations.
  bool converged = true;
  /// max_k ||A v_k - lambda_k v_k||_2 / scale — how well each
  /// (eigenvalue, eigenvector) pair actually satisfies the eigen
  /// equation. Near-defective inputs show large residuals even when the
  /// iteration "converged".
  double max_residual = 0.0;
};

/// Eigendecomposition of a general complex matrix. Intended for the small
/// (L <= ~16) matrices ESPRIT produces; cost is O(n^3) per QR sweep.
/// Results are checked out of `ws`; all scratch (Hessenberg copy, Givens
/// rotations, inverse-iteration solves) is taken and released inside an
/// internal frame. Never throws for convergence — inspect `converged` /
/// `max_residual`.
[[nodiscard]] GeneralEigRef eig_general(ConstCMatrixView a, Workspace& ws);

}  // namespace spotfi
