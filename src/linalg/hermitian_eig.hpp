// Hermitian eigendecomposition — the core primitive behind MUSIC.
//
// MUSIC eigendecomposes the (Hermitian, positive semi-definite) covariance
// X X^H of the smoothed CSI matrix and splits the eigenvectors into signal
// and noise subspaces. The matrices are small (30x30 for the Intel 5300
// configuration), so a cyclic complex Jacobi iteration is the right choice:
// unconditionally stable, and delivers orthonormal eigenvectors to machine
// precision. It is not cheap: about 5 ms per 30x30 decomposition, the
// largest per-packet MUSIC cost (about three quarters of the metered
// estimation time per fix in perfbench's office_music workload).
//
// Failure semantics: eigh never throws for convergence. Coherent multipath
// routinely drives the covariance to (near) rank deficiency, so instead of
// a bare NumericalError the result carries condition and residual
// diagnostics (`converged`, `off_diagonal_residual`, `rcond`, `sweeps`) and
// callers decide what a partial decomposition is worth. Non-convergence is
// counted in NumericsCounters::eigh_nonconverged when a NumericsScope is
// active.
#pragma once

#include "linalg/matrix.hpp"

namespace spotfi {

/// Result of eigh(): eigenvalues ascending, eigenvectors[:, k] is the unit
/// eigenvector for eigenvalues[k]. For PSD inputs tiny negative values can
/// appear from rounding; callers thresholding "zero" eigenvalues should use
/// a relative tolerance.
struct HermitianEig {
  RVector eigenvalues;
  CMatrix eigenvectors;
  /// False when the sweep limit was reached before the off-diagonal mass
  /// dropped below tolerance; the decomposition is then approximate (does
  /// not happen for genuinely Hermitian input).
  bool converged = true;
  /// Jacobi sweeps consumed.
  int sweeps = 0;
  /// Final off-diagonal Frobenius mass relative to the squared matrix
  /// scale — a residual measure of how far from diagonal the iteration
  /// stopped (0 for a clean decomposition).
  double off_diagonal_residual = 0.0;
  /// Reciprocal condition number min|lambda| / max|lambda| (1.0 for the
  /// empty/scalar case, 0.0 for an exactly singular input). Rank-deficient
  /// covariances are *expected* in MUSIC — this is a diagnostic, not an
  /// error signal.
  double rcond = 1.0;
};

/// Eigendecomposition of a Hermitian matrix via cyclic complex Jacobi.
///
/// Preconditions: `a` is square and Hermitian to within roundoff (the
/// routine symmetrizes internally and checks the asymmetry is small).
/// Never throws for convergence — inspect `converged` and the residual
/// diagnostics instead.
[[nodiscard]] HermitianEig eigh(const CMatrix& a);

/// Arena variant of HermitianEig: the eigenvalue span and eigenvector
/// view live in the Workspace passed to eigh() and stay valid until the
/// caller's enclosing frame closes (or the arena resets).
struct HermitianEigRef {
  std::span<double> eigenvalues;
  CMatrixView eigenvectors;
  bool converged = true;
  int sweeps = 0;
  double off_diagonal_residual = 0.0;
  double rcond = 1.0;
};

/// Zero-allocation eigh: results are checked out of `ws` (then scratch
/// is taken and released inside an internal frame). Same arithmetic as
/// the value overload — identical bits in eigenvalues and eigenvectors.
[[nodiscard]] HermitianEigRef eigh(ConstCMatrixView a, Workspace& ws);

/// Real symmetric convenience wrapper (used by tests and PCA-style code).
struct SymmetricEig {
  RVector eigenvalues;
  RMatrix eigenvectors;
  bool converged = true;
  int sweeps = 0;
  double off_diagonal_residual = 0.0;
  double rcond = 1.0;
};
[[nodiscard]] SymmetricEig eigh(const RMatrix& a);

}  // namespace spotfi
