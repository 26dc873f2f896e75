// Edge-case tests for the numerical fault containment layer: the
// NumericsScope telemetry, the strict SPD solve's throws and the complex
// solve's jitter ladder, eigensolver diagnostics on defective and
// rank-deficient inputs, Levenberg-Marquardt's non-finite containment and
// per-parameter FD scaling, GMM flooring on coincident data, and
// degenerate GDOP geometry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "cluster/gmm.hpp"
#include "common/rng.hpp"
#include "linalg/eig_general.hpp"
#include "linalg/hermitian_eig.hpp"
#include "linalg/levmar.hpp"
#include "linalg/numerics.hpp"
#include "linalg/solve.hpp"
#include "localize/gdop.hpp"

namespace spotfi {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// --- NumericsScope / counters ---

TEST(NumericsScope, CountsOnlyWhileActive) {
  EXPECT_FALSE(numerics_scope_active());
  count_numerics(&NumericsCounters::solve_regularized);  // no-op, no scope
  {
    NumericsScope scope;
    EXPECT_TRUE(numerics_scope_active());
    count_numerics(&NumericsCounters::solve_regularized);
    count_numerics(&NumericsCounters::gdop_degenerate, 3);
    EXPECT_EQ(scope.counters().solve_regularized, 1u);
    EXPECT_EQ(scope.counters().gdop_degenerate, 3u);
    EXPECT_EQ(scope.counters().total(), 4u);
    EXPECT_TRUE(scope.counters().any());
  }
  EXPECT_FALSE(numerics_scope_active());
}

TEST(NumericsScope, NestedScopesFoldIntoParent) {
  NumericsScope outer;
  count_numerics(&NumericsCounters::levmar_solve_failed);
  {
    NumericsScope inner;
    count_numerics(&NumericsCounters::levmar_solve_failed);
    count_numerics(&NumericsCounters::eigh_nonconverged);
    // While the inner scope is active, events land there, not in outer.
    EXPECT_EQ(inner.counters().levmar_solve_failed, 1u);
    EXPECT_EQ(outer.counters().levmar_solve_failed, 1u);
  }
  // Destruction folded the inner tallies into the outer scope.
  EXPECT_EQ(outer.counters().levmar_solve_failed, 2u);
  EXPECT_EQ(outer.counters().eigh_nonconverged, 1u);
}

TEST(NumericsCounters, SummaryNamesOnlyNonZero) {
  NumericsCounters c;
  EXPECT_EQ(c.summary(), "");
  c.solve_regularized = 2;
  c.gmm_variance_floored = 1;
  const std::string s = c.summary();
  EXPECT_NE(s.find("solve-regularized=2"), std::string::npos);
  EXPECT_NE(s.find("gmm-variance-floored=1"), std::string::npos);
  EXPECT_EQ(s.find("levmar"), std::string::npos);
}

// --- strict SPD solve / complex solve ladder ---

TEST(RetryLadder, StrictCholeskyCatchesNanPivot) {
  // A NaN on the diagonal must fail the factorization, not propagate.
  RMatrix a{{1.0, 0.0}, {0.0, 1.0}};
  a(1, 1) = kNan;
  const RVector b{1.0, 1.0};
  EXPECT_THROW((void)solve_spd(a, b), NumericalError);
}

TEST(RetryLadder, SolveComplexRegularizesSingularMatrix) {
  const CMatrix a{{cplx(1.0, 0.0), cplx(2.0, 0.0)},
                  {cplx(2.0, 0.0), cplx(4.0, 0.0)}};
  const CVector b{cplx(1.0, 0.0), cplx(2.0, 0.0)};
  Workspace ws;
  CVector x(2);
  EXPECT_THROW(solve_complex_into(a, b, x, ws), NumericalError);

  NumericsScope scope;
  solve_complex_regularized_into(a, b, x, ws);
  EXPECT_GE(scope.counters().solve_regularized, 1u);
  // The rhs is in the range of A; the jittered solve must reproduce it.
  for (std::size_t i = 0; i < 2; ++i) {
    cplx ax{};
    for (std::size_t j = 0; j < 2; ++j) ax += a(i, j) * x[j];
    EXPECT_NEAR(std::abs(ax - b[i]), 0.0, 1e-5);
  }
}

TEST(RetryLadder, SolveComplexRejectsNonFiniteRhs) {
  const CMatrix a{{cplx(1.0, 0.0), cplx{}}, {cplx{}, cplx(1.0, 0.0)}};
  const CVector b{cplx(kNan, 0.0), cplx(1.0, 0.0)};
  Workspace ws;
  CVector x(2);
  EXPECT_THROW(solve_complex_regularized_into(a, b, x, ws), NumericalError);
}

// --- eigh diagnostics ---

TEST(EighDiagnostics, RankOneOuterProductIsDiagnosedNotThrown) {
  // v v^H: one eigenvalue ||v||^2, the rest exactly zero — the covariance
  // MUSIC sees under a single fully coherent path bundle.
  Rng rng(7);
  const std::size_t n = 6;
  CVector v(n);
  for (auto& e : v) e = cplx(rng.normal(), rng.normal());
  CMatrix a(n, n);
  double norm_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = v[i] * std::conj(v[j]);
    norm_sq += std::norm(v[i]);
  }

  Workspace ws;
  const EighResult eig = eigh(a, ws);
  EXPECT_TRUE(eig.converged);
  EXPECT_NEAR(eig.eigenvalues.back(), norm_sq, 1e-9 * norm_sq);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    EXPECT_NEAR(eig.eigenvalues[k], 0.0, 1e-9 * norm_sq);
  }
  // Exactly singular: rcond reports it, but that is a diagnostic, not an
  // error — rank deficiency is MUSIC's normal operating regime.
  EXPECT_LT(eig.rcond, 1e-9);
  // Eigenvectors stay orthonormal even for the defective-looking input.
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      cplx dot{};
      for (std::size_t i = 0; i < n; ++i) {
        dot += std::conj(eig.eigenvectors(i, p)) * eig.eigenvectors(i, q);
      }
      EXPECT_NEAR(std::abs(dot), p == q ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(EighDiagnostics, ClusteredEigenvaluesStillConverge) {
  // Nearly equal eigenvalues are the classic Jacobi stress case.
  Rng rng(8);
  const std::size_t n = 5;
  CMatrix q(n, n);
  for (auto& e : q.flat()) e = cplx(rng.normal(), rng.normal());
  // Orthonormalize columns (Gram-Schmidt) to build a unitary basis.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < j; ++k) {
      cplx proj{};
      for (std::size_t i = 0; i < n; ++i) proj += std::conj(q(i, k)) * q(i, j);
      for (std::size_t i = 0; i < n; ++i) q(i, j) -= proj * q(i, k);
    }
    double nv = 0.0;
    for (std::size_t i = 0; i < n; ++i) nv += std::norm(q(i, j));
    nv = std::sqrt(nv);
    for (std::size_t i = 0; i < n; ++i) q(i, j) /= nv;
  }
  const RVector lambda{1.0, 1.0 + 1e-13, 1.0 + 2e-13, 1.0 + 3e-13, 2.0};
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cplx s{};
      for (std::size_t k = 0; k < n; ++k) {
        s += q(i, k) * lambda[k] * std::conj(q(j, k));
      }
      a(i, j) = s;
    }
  }
  // Symmetrize exactly to stay within eigh's Hermitian tolerance.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const cplx avg = 0.5 * (a(i, j) + std::conj(a(j, i)));
      a(i, j) = avg;
      a(j, i) = std::conj(avg);
    }
  }
  Workspace ws;
  const EighResult eig = eigh(a, ws);
  EXPECT_TRUE(eig.converged);
  EXPECT_NEAR(eig.eigenvalues.back(), 2.0, 1e-9);
  EXPECT_NEAR(eig.eigenvalues.front(), 1.0, 1e-9);
}

TEST(EighDiagnostics, NanInputReportsNonConvergenceInsteadOfChurning) {
  CMatrix a(4, 4);
  a(1, 2) = cplx(kNan, 0.0);
  NumericsScope scope;
  Workspace ws;
  const EighResult eig = eigh(a, ws);
  EXPECT_FALSE(eig.converged);
  EXPECT_EQ(eig.rcond, 0.0);
  EXPECT_TRUE(std::isinf(eig.max_residual));
  EXPECT_EQ(scope.counters().eigh_nonconverged, 1u);
}

// --- eigh edge cases (Householder tridiagonalization + implicit QL) ---

/// Unit-norm, mutually orthogonal eigenvector columns.
void expect_orthonormal(const EighResult& eig, double tol) {
  const std::size_t n = eig.eigenvalues.size();
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      cplx dot{};
      for (std::size_t i = 0; i < n; ++i) {
        dot += std::conj(eig.eigenvectors(i, p)) * eig.eigenvectors(i, q);
      }
      EXPECT_NEAR(std::abs(dot - cplx(p == q ? 1.0 : 0.0)), 0.0, tol)
          << "p=" << p << " q=" << q;
    }
  }
}

TEST(EighEdgeCases, OneByOne) {
  const CMatrix a{{cplx(-2.5, 0.0)}};
  Workspace ws;
  const EighResult eig = eigh(a, ws);
  EXPECT_TRUE(eig.converged);
  ASSERT_EQ(eig.eigenvalues.size(), 1u);
  EXPECT_EQ(eig.eigenvalues[0], -2.5);
  EXPECT_EQ(eig.eigenvectors(0, 0), cplx(1.0, 0.0));
  EXPECT_EQ(eig.max_residual, 0.0);
  EXPECT_EQ(eig.rcond, 1.0);
}

TEST(EighEdgeCases, TwoByTwoWithComplexCoupling) {
  // [[1, 2-2i], [2+2i, 3]]: eigenvalues 2 -+ sqrt(1 + 8) = -1 and 5. No
  // Householder step runs; the phase change alone makes it real.
  const CMatrix a{{cplx(1.0, 0.0), cplx(2.0, -2.0)},
                  {cplx(2.0, 2.0), cplx(3.0, 0.0)}};
  Workspace ws;
  const EighResult eig = eigh(a, ws);
  EXPECT_TRUE(eig.converged);
  EXPECT_NEAR(eig.eigenvalues[0], -1.0, 1e-14);
  EXPECT_NEAR(eig.eigenvalues[1], 5.0, 1e-14);
  EXPECT_LT(eig.max_residual, 1e-15);
  expect_orthonormal(eig, 1e-15);
}

TEST(EighEdgeCases, DiagonalInputIsReturnedExactly) {
  const RVector diag{3.0, -1.0, 2.0, 0.5, 7.0};
  const std::size_t n = diag.size();
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = diag[i];
  Workspace ws;
  const EighResult eig = eigh(a, ws);
  EXPECT_TRUE(eig.converged);
  EXPECT_EQ(eig.max_residual, 0.0);
  // Already tridiagonal with a zero subdiagonal: nothing rotates, the
  // result is the sorted diagonal and permuted unit vectors, bit-exact.
  const std::vector<std::size_t> source{1, 3, 2, 0, 4};
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(eig.eigenvalues[k], diag[source[k]]);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(eig.eigenvectors(i, k), cplx(i == source[k] ? 1.0 : 0.0))
          << "i=" << i << " k=" << k;
    }
  }
}

TEST(EighEdgeCases, BlockDiagonalSplitsTheTridiagonal) {
  // A 3x3 and a 2x2 Hermitian block with no coupling. Reduction keeps the
  // blocks apart (the subdiagonal entry between them is an exact zero),
  // so QL deflates there and every eigenvector stays inside its block.
  const CMatrix b1{{cplx(4.0, 0.0), cplx(1.0, 1.0), cplx(0.0, -2.0)},
                   {cplx(1.0, -1.0), cplx(1.0, 0.0), cplx(0.5, 0.0)},
                   {cplx(0.0, 2.0), cplx(0.5, 0.0), cplx(-3.0, 0.0)}};
  const CMatrix b2{{cplx(2.0, 0.0), cplx(0.0, 1.5)},
                   {cplx(0.0, -1.5), cplx(-1.0, 0.0)}};
  CMatrix a(5, 5);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = b1(i, j);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) a(3 + i, 3 + j) = b2(i, j);

  Workspace ws;
  const EighResult eig = eigh(a, ws);
  EXPECT_TRUE(eig.converged);
  EXPECT_LT(eig.max_residual, 1e-14);
  expect_orthonormal(eig, 1e-14);

  // Block spectra from their own decompositions, merged ascending.
  std::vector<double> want;
  for (const CMatrix* b : {&b1, &b2}) {
    Workspace::Frame frame(ws);
    const EighResult part = eigh(*b, ws);
    want.insert(want.end(), part.eigenvalues.begin(), part.eigenvalues.end());
  }
  std::sort(want.begin(), want.end());
  const double b2_lo = 0.5 - std::sqrt(1.5 * 1.5 + 1.5 * 1.5);
  const double b2_hi = 0.5 + std::sqrt(1.5 * 1.5 + 1.5 * 1.5);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(eig.eigenvalues[k], want[k], 1e-13) << "k=" << k;
    // Every eigenvector lives entirely in one block.
    double in_b1 = 0.0;
    double in_b2 = 0.0;
    for (std::size_t i = 0; i < 5; ++i) {
      (i < 3 ? in_b1 : in_b2) += std::norm(eig.eigenvectors(i, k));
    }
    const bool from_b2 = std::abs(eig.eigenvalues[k] - b2_lo) < 1e-12 ||
                         std::abs(eig.eigenvalues[k] - b2_hi) < 1e-12;
    EXPECT_EQ(from_b2 ? in_b1 : in_b2, 0.0) << "k=" << k;
  }
}

TEST(EighEdgeCases, IdentityHasExactlyRepeatedEigenvalues) {
  const std::size_t n = 7;
  Workspace ws;
  const EighResult eig = eigh(CMatrix::identity(n), ws);
  EXPECT_TRUE(eig.converged);
  EXPECT_EQ(eig.max_residual, 0.0);
  EXPECT_EQ(eig.rcond, 1.0);
  for (const double ev : eig.eigenvalues) EXPECT_EQ(ev, 1.0);
  expect_orthonormal(eig, 0.0);
}

TEST(EighEdgeCases, ZeroMatrixIsSingularButConverged) {
  const std::size_t n = 4;
  Workspace ws;
  const EighResult eig = eigh(CMatrix(n, n), ws);
  EXPECT_TRUE(eig.converged);
  EXPECT_EQ(eig.max_residual, 0.0);
  EXPECT_EQ(eig.rcond, 0.0);
  for (const double ev : eig.eigenvalues) EXPECT_EQ(ev, 0.0);
  expect_orthonormal(eig, 0.0);
}

TEST(EighEdgeCases, RankOneCollapseAtMusicSize) {
  // v v^H at the 30x30 covariance size: the whole spectrum collapses onto
  // one eigenvalue ||v||^2 and 29 exact zeros.
  Rng rng(17);
  const std::size_t n = 30;
  CVector v(n);
  for (auto& e : v) e = cplx(rng.normal(), rng.normal());
  double norm_sq = 0.0;
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = v[i] * std::conj(v[j]);
    norm_sq += std::norm(v[i]);
  }
  Workspace ws;
  const EighResult eig = eigh(a, ws);
  EXPECT_TRUE(eig.converged);
  EXPECT_LT(eig.max_residual, 1e-14);
  EXPECT_LT(eig.rcond, 1e-14);
  EXPECT_NEAR(eig.eigenvalues.back(), norm_sq, 1e-13 * norm_sq);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    EXPECT_NEAR(eig.eigenvalues[k], 0.0, 1e-13 * norm_sq) << "k=" << k;
  }
  expect_orthonormal(eig, 1e-13);
  // The dominant eigenvector is v's direction: |<v, u>| = ||v||.
  cplx overlap{};
  for (std::size_t i = 0; i < n; ++i) {
    overlap += std::conj(v[i]) * eig.eigenvectors(i, n - 1);
  }
  EXPECT_NEAR(std::abs(overlap), std::sqrt(norm_sq), 1e-12 * norm_sq);
}

TEST(EighEdgeCases, ExtremeScalesMatchUnitScaleExactly) {
  // Entries near 2^-600 or 2^600 square to under- or overflow. eigh works
  // at unit scale internally (a power-of-two factor), so both extremes
  // reproduce the unit-scale decomposition bit for bit.
  Rng rng(29);
  const std::size_t n = 30;
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = rng.normal();
    for (std::size_t j = 0; j < i; ++j) {
      a(i, j) = cplx(rng.normal(), rng.normal());
      a(j, i) = std::conj(a(i, j));
    }
  }
  Workspace ws;
  const EighResult unit = eigh(a, ws);
  ASSERT_TRUE(unit.converged);
  for (const int power : {-600, 600}) {
    SCOPED_TRACE(::testing::Message() << "scale 2^" << power);
    CMatrix scaled = a;
    for (cplx& v : scaled.flat()) {
      v = cplx(std::ldexp(v.real(), power), std::ldexp(v.imag(), power));
    }
    Workspace::Frame frame(ws);
    const EighResult eig = eigh(scaled, ws);
    EXPECT_TRUE(eig.converged);
    EXPECT_EQ(eig.max_residual, unit.max_residual);
    EXPECT_EQ(eig.rcond, unit.rcond);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(eig.eigenvalues[k], std::ldexp(unit.eigenvalues[k], power));
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(eig.eigenvectors(i, k), unit.eigenvectors(i, k));
      }
    }
  }
}

TEST(EighEdgeCases, InfInputReportsNonConvergenceOnce) {
  CMatrix a = CMatrix::identity(5);
  a(2, 3) = cplx(std::numeric_limits<double>::infinity(), 0.0);
  a(3, 2) = a(2, 3);
  NumericsScope scope;
  Workspace ws;
  const EighResult eig = eigh(a, ws);
  EXPECT_FALSE(eig.converged);
  EXPECT_TRUE(std::isinf(eig.max_residual));
  EXPECT_EQ(eig.rcond, 0.0);
  for (const double ev : eig.eigenvalues) EXPECT_TRUE(std::isnan(ev));
  EXPECT_EQ(scope.counters().eigh_nonconverged, 1u);
  EXPECT_EQ(scope.counters().total(), 1u);
}

TEST(EighEdgeCases, ResidualIsAtRoundoffOnRandomCovariance) {
  // The converged flag is a residual test: on an ordinary full-rank
  // covariance the worst eigenpair sits a few ulps from exact.
  Rng rng(23);
  const std::size_t n = 30;
  CMatrix x(n, 2 * n);
  for (auto& e : x.flat()) e = cplx(rng.normal(), rng.normal());
  Workspace ws;
  const EighResult eig = eigh(x.gram(), ws);
  EXPECT_TRUE(eig.converged);
  EXPECT_GT(eig.max_residual, 0.0);
  EXPECT_LT(eig.max_residual, 1e-14);
  expect_orthonormal(eig, 1e-13);
}

// --- eig_general diagnostics ---

TEST(EigGeneralDiagnostics, JordanBlockDoesNotThrow) {
  // Nilpotent Jordan block: defective (single eigenvector), the worst
  // case for both QR deflation and inverse iteration. The contract is
  // "no throw, diagnostics populated" — not accuracy.
  const std::size_t n = 4;
  CMatrix a(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) a(i, i + 1) = cplx(1.0, 0.0);
  Workspace ws;
  const GeneralEigRef eig = eig_general(a, ws);
  EXPECT_EQ(eig.eigenvalues.size(), n);
  for (const cplx& ev : eig.eigenvalues) {
    EXPECT_TRUE(std::isfinite(ev.real()) && std::isfinite(ev.imag()));
  }
  EXPECT_TRUE(std::isfinite(eig.max_residual));
}

TEST(EigGeneralDiagnostics, CleanMatrixHasTinyResidual) {
  Rng rng(9);
  CMatrix a(4, 4);
  for (auto& e : a.flat()) e = cplx(rng.normal(), rng.normal());
  Workspace ws;
  const GeneralEigRef eig = eig_general(a, ws);
  EXPECT_TRUE(eig.converged);
  EXPECT_LT(eig.max_residual, 1e-6);
}

TEST(EigGeneralDiagnostics, NanInputIsPoisonedNotLooped) {
  CMatrix a(3, 3);
  a(0, 0) = cplx(kNan, 0.0);
  NumericsScope scope;
  Workspace ws;
  const GeneralEigRef eig = eig_general(a, ws);
  EXPECT_FALSE(eig.converged);
  EXPECT_TRUE(std::isinf(eig.max_residual));
  EXPECT_EQ(scope.counters().eig_general_nonconverged, 1u);
}

// --- Levenberg-Marquardt containment ---

TEST(LevMarContainment, NonFiniteStartIsDivergedNotChurned) {
  const ResidualFn f = [](std::span<const double> x, std::span<double> r) {
    r[0] = x[0] - 1.0;
    r[1] = kNan;
  };
  NumericsScope scope;
  const LevMarResult res = levenberg_marquardt(f, 2, RVector{0.0});
  EXPECT_TRUE(res.diverged);
  EXPECT_FALSE(res.converged);
  EXPECT_FALSE(res.reason.empty());
  EXPECT_GE(scope.counters().levmar_poisoned, 1u);
}

TEST(LevMarContainment, NanWallIsContainedAndResultStaysFinite) {
  // Residual valid only for x < 1; the optimum pull is toward larger x.
  // Trials crossing the wall must be rejected like uphill steps and the
  // returned iterate must stay finite.
  const ResidualFn f = [](std::span<const double> x, std::span<double> r) {
    if (x[0] >= 1.0) {
      r[0] = r[1] = kNan;
      return;
    }
    r[0] = 10.0 * (x[0] - 5.0);
    r[1] = 0.1 * x[0];
  };
  NumericsScope scope;
  const LevMarResult res = levenberg_marquardt(f, 2, RVector{0.5});
  EXPECT_TRUE(std::isfinite(res.cost));
  EXPECT_TRUE(std::isfinite(res.x[0]));
  EXPECT_LT(res.x[0], 1.0);
  EXPECT_GT(res.nonfinite_trials, 0u);
  EXPECT_EQ(scope.counters().levmar_nonfinite_trials, res.nonfinite_trials);
}

TEST(LevMarContainment, FdScalesResolveTinyParameters) {
  // Root of sin(1e8 * p - 3): the parameter lives at 3e-8. The default
  // FD step (1e-6 * max(1, |p|) = 1e-6) spans 100 radians of the
  // argument — pure aliasing. A per-parameter scale of 1e-8 shrinks the
  // step to ~1e-14, giving an accurate derivative.
  const ResidualFn f = [](std::span<const double> p, std::span<double> r) {
    r[0] = std::sin(1e8 * p[0] - 3.0);
  };
  LevMarOptions scaled;
  scaled.fd_scales = RVector{1e-8};
  const LevMarResult good = levenberg_marquardt(f, 1, RVector{2e-8}, scaled);
  EXPECT_TRUE(good.converged);
  EXPECT_NEAR(good.x[0], 3e-8, 1e-10);

  const LevMarResult bad = levenberg_marquardt(f, 1, RVector{2e-8});
  // Whatever the aliased run does, it cannot have tracked the true root
  // with a 1e-6 step; it must not be trusted at the 1e-10 level.
  EXPECT_TRUE(std::isfinite(bad.cost));
  EXPECT_GT(std::abs(bad.x[0] - 3e-8), 1e-9);
}

TEST(LevMarContainment, FdScalesShapeIsValidated) {
  const ResidualFn f = [](std::span<const double> x, std::span<double> r) {
    r[0] = x[0];
    r[1] = x[1];
  };
  LevMarOptions opts;
  opts.fd_scales = RVector{1.0};  // two parameters, one scale
  EXPECT_THROW(
      (void)levenberg_marquardt(f, 2, RVector{1.0, 2.0}, opts),
      ContractViolation);
}

// --- GMM coincident data ---

TEST(GmmDegenerate, CoincidentPointsFloorVarianceAndCount) {
  RMatrix points(10, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    points(i, 0) = 0.4;
    points(i, 1) = -1.3;
  }
  Rng rng(11);
  NumericsScope scope;
  const GmmResult gmm = fit_gmm(points, 3, rng, {}, thread_workspace());
  EXPECT_GE(scope.counters().gmm_variance_floored, 1u);
  for (const auto& comp : gmm.components) {
    for (const double v : comp.variance) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GT(v, 0.0);
    }
    for (const double m : comp.mean) EXPECT_TRUE(std::isfinite(m));
  }
  EXPECT_TRUE(std::isfinite(gmm.log_likelihood));
}

TEST(GmmDegenerate, SpreadDataDoesNotCount) {
  Rng rng(12);
  RMatrix points(40, 2);
  for (auto& v : points.flat()) v = rng.normal();
  NumericsScope scope;
  (void)fit_gmm(points, 3, rng, {}, thread_workspace());
  EXPECT_EQ(scope.counters().gmm_variance_floored, 0u);
  EXPECT_EQ(scope.counters().gmm_nonfinite, 0u);
}

// --- GDOP degenerate geometry ---

TEST(GdopDegenerate, CollinearApsReturnErrorAndCount) {
  // Three APs on the x-axis, query point also on the x-axis: every
  // bearing is parallel, the Fisher information is rank one.
  const std::vector<ArrayPose> aps = {
      {{0.0, 0.0}, 0.0}, {{2.0, 0.0}, 0.0}, {{4.0, 0.0}, 0.0}};
  NumericsScope scope;
  const auto r = try_bearing_gdop(aps, {10.0, 0.0}, 0.02);
  ASSERT_FALSE(r.has_value());
  EXPECT_NE(r.error().find("degenerate"), std::string::npos);
  EXPECT_EQ(scope.counters().gdop_degenerate, 1u);
  EXPECT_THROW((void)bearing_gdop(aps, {10.0, 0.0}, 0.02), NumericalError);
}

TEST(GdopDegenerate, OffAxisPointIsWellPosed) {
  const std::vector<ArrayPose> aps = {
      {{0.0, 0.0}, 0.0}, {{2.0, 0.0}, 0.0}, {{4.0, 0.0}, 0.0}};
  NumericsScope scope;
  const auto r = try_bearing_gdop(aps, {2.0, 5.0}, 0.02);
  ASSERT_TRUE(r.has_value());
  EXPECT_GT(r->drms_m, 0.0);
  EXPECT_GE(r->major_m, r->minor_m);
  EXPECT_EQ(scope.counters().gdop_degenerate, 0u);
}

}  // namespace
}  // namespace spotfi
