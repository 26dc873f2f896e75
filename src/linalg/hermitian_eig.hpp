// Hermitian eigendecomposition — the core primitive behind MUSIC.
//
// MUSIC eigendecomposes the (Hermitian, positive semi-definite) covariance
// X X^H of the smoothed CSI matrix and splits the eigenvectors into signal
// and noise subspaces. The matrices are small (30x30 for the Intel 5300
// configuration), so a dense direct solve is the right choice, and the
// one here is LAPACK's zheev route: a Householder reduction to Hermitian
// tridiagonal form, a diagonal phase change that makes the tridiagonal
// real, implicit QL with Wilkinson shifts on that real tridiagonal, and
// one complex x real product that turns the accumulated rotations into
// the eigenvectors. It is backward stable and delivers orthonormal
// eigenvectors to machine precision, at about 0.08 ms per 30x30
// decomposition (BENCH_28.json, 4 CPUs; complex loops split real).
//
// Failure semantics: eigh never throws for convergence. Coherent multipath
// routinely drives the covariance to (near) rank deficiency, so instead of
// a bare NumericalError the result carries condition and residual
// diagnostics (`converged`, `max_residual`, `rcond`) and callers decide
// what a partial decomposition is worth. Non-convergence is counted in
// NumericsCounters::eigh_nonconverged when a NumericsScope is active.
#pragma once

#include "linalg/matrix.hpp"

namespace spotfi {

/// Result of eigh(): eigenvalues ascending, eigenvectors(:, k) is the unit
/// eigenvector for eigenvalues[k]. Both live in the Workspace passed to
/// eigh() and stay valid until the caller's enclosing frame closes (or the
/// arena resets). For PSD inputs tiny negative values can appear from
/// rounding; callers thresholding "zero" eigenvalues should use a relative
/// tolerance.
struct EighResult {
  std::span<double> eigenvalues;
  CMatrixView eigenvectors;
  /// True when the QL iteration finished within its iteration cap and
  /// every eigenpair passed the residual check below (always, for
  /// genuinely Hermitian finite input).
  bool converged = true;
  /// max_k ||A v_k - lambda_k v_k|| / ||A||_F over the returned pairs: a
  /// few ulps for a clean decomposition, +inf for non-finite input.
  double max_residual = 0.0;
  /// Reciprocal condition number min|lambda| / max|lambda| (1.0 for the
  /// empty/scalar case, 0.0 for an exactly singular input). Rank-deficient
  /// covariances are *expected* in MUSIC — this is a diagnostic, not an
  /// error signal.
  double rcond = 1.0;
};

/// Zero-allocation eigendecomposition of a Hermitian matrix: results are
/// checked out of `ws`, then scratch is taken and released inside an
/// internal frame.
///
/// Preconditions: `a` is square and Hermitian to within roundoff (the
/// routine symmetrizes internally and checks the asymmetry is small).
/// Never throws for convergence — inspect `converged` and the residual
/// diagnostics instead.
[[nodiscard]] EighResult eigh(ConstCMatrixView a, Workspace& ws);

}  // namespace spotfi
