// Unit and property tests for the linear algebra substrate: matrix
// arithmetic, the Hermitian eigensolver behind MUSIC, direct solvers, and
// Levenberg-Marquardt.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "linalg/eig_general.hpp"
#include "linalg/hermitian_eig.hpp"
#include "linalg/levmar.hpp"
#include "linalg/matrix.hpp"
#include "linalg/solve.hpp"

namespace spotfi {
namespace {

CMatrix random_complex(std::size_t rows, std::size_t cols, Rng& rng) {
  CMatrix m(rows, cols);
  for (auto& v : m.flat()) v = cplx(rng.normal(), rng.normal());
  return m;
}

CMatrix random_hermitian(std::size_t n, Rng& rng) {
  const CMatrix a = random_complex(n, n, rng);
  CMatrix h = a;
  h += a.adjoint();
  h *= cplx(0.5, 0.0);
  return h;
}

/// Owning copy of an arena view, for the Matrix operators.
CMatrix to_matrix(ConstCMatrixView v) {
  CMatrix m(v.rows(), v.cols());
  for (std::size_t i = 0; i < v.rows(); ++i)
    for (std::size_t j = 0; j < v.cols(); ++j) m(i, j) = v(i, j);
  return m;
}

TEST(Matrix, InitializerListAndIndexing) {
  const RMatrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((RMatrix{{1.0, 2.0}, {3.0}}), ContractViolation);
}

TEST(Matrix, ArithmeticAndShapes) {
  const RMatrix a{{1.0, 2.0}, {3.0, 4.0}};
  const RMatrix b{{5.0, 6.0}, {7.0, 8.0}};
  const RMatrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 6.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 12.0);
  const RMatrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 0), 4.0);
  const RMatrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  const RMatrix bad(3, 2);
  EXPECT_THROW(a + bad, ContractViolation);
}

TEST(Matrix, ProductMatchesHandComputation) {
  const RMatrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const RMatrix b{{7.0, 8.0}, {9.0, 10.0}, {11.0, 12.0}};
  const RMatrix c = a * b;
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, AdjointConjugates) {
  CMatrix m(1, 2);
  m(0, 0) = cplx(1.0, 2.0);
  m(0, 1) = cplx(3.0, -4.0);
  const CMatrix h = m.adjoint();
  ASSERT_EQ(h.rows(), 2u);
  EXPECT_EQ(h(0, 0), cplx(1.0, -2.0));
  EXPECT_EQ(h(1, 0), cplx(3.0, 4.0));
}

TEST(Matrix, GramIsHermitianPsd) {
  Rng rng(3);
  const CMatrix x = random_complex(4, 7, rng);
  const CMatrix g = x.gram();
  ASSERT_EQ(g.rows(), 4u);
  ASSERT_EQ(g.cols(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(g(i, i).real(), 0.0);
    EXPECT_NEAR(g(i, i).imag(), 0.0, 1e-12);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(std::abs(g(i, j) - std::conj(g(j, i))), 0.0, 1e-12);
    }
  }
  // Explicit check against X * X^H.
  const CMatrix ref = x * x.adjoint();
  EXPECT_LT((g - ref).max_abs(), 1e-10);
}

TEST(Matrix, IdentityAndFrobenius) {
  const auto eye = RMatrix::identity(3);
  EXPECT_DOUBLE_EQ(eye.frobenius_norm(), std::sqrt(3.0));
  EXPECT_DOUBLE_EQ(eye(2, 2), 1.0);
  EXPECT_DOUBLE_EQ(eye(0, 1), 0.0);
}

TEST(MatVec, ComplexAndReal) {
  const CMatrix a{{cplx(1, 0), cplx(0, 1)}, {cplx(2, 0), cplx(0, 0)}};
  const CVector x{cplx(1, 0), cplx(1, 0)};
  const CVector y = matvec(a, x);
  EXPECT_EQ(y[0], cplx(1, 1));
  EXPECT_EQ(y[1], cplx(2, 0));

  const RMatrix b{{1.0, 2.0}, {3.0, 4.0}};
  const RVector u{1.0, -1.0};
  const RVector v = matvec(b, u);
  EXPECT_DOUBLE_EQ(v[0], -1.0);
  EXPECT_DOUBLE_EQ(v[1], -1.0);
}

TEST(Dot, HermitianConvention) {
  const CVector x{cplx(0, 1)};
  const CVector y{cplx(0, 1)};
  // <x, x> must be real positive with conjugation on the first argument.
  EXPECT_EQ(dot(x, y), cplx(1, 0));
}

TEST(Eigh, DiagonalMatrix) {
  CMatrix d(3, 3);
  d(0, 0) = cplx(3.0, 0.0);
  d(1, 1) = cplx(1.0, 0.0);
  d(2, 2) = cplx(2.0, 0.0);
  Workspace ws;
  const EighResult eig = eigh(d, ws);
  ASSERT_EQ(eig.eigenvalues.size(), 3u);
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[2], 3.0, 1e-12);
}

TEST(Eigh, KnownTwoByTwo) {
  // [[2, i], [-i, 2]] has eigenvalues 1 and 3.
  CMatrix a(2, 2);
  a(0, 0) = cplx(2.0, 0.0);
  a(0, 1) = cplx(0.0, 1.0);
  a(1, 0) = cplx(0.0, -1.0);
  a(1, 1) = cplx(2.0, 0.0);
  Workspace ws;
  const EighResult eig = eigh(a, ws);
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[1], 3.0, 1e-10);
}

TEST(Eigh, NonHermitianInputThrows) {
  CMatrix a(2, 2);
  a(0, 1) = cplx(1.0, 0.0);
  a(1, 0) = cplx(5.0, 0.0);
  Workspace ws;
  EXPECT_THROW((void)eigh(a, ws), ContractViolation);
}

TEST(Eigh, NonSquareThrows) {
  Workspace ws;
  EXPECT_THROW((void)eigh(CMatrix(2, 3), ws), ContractViolation);
}

class EighProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EighProperty, ReconstructsAndIsOrthonormal) {
  const std::size_t n = GetParam();
  Rng rng(1000 + n);
  const CMatrix a = random_hermitian(n, rng);
  Workspace ws;
  const EighResult eig = eigh(a, ws);
  const CMatrix vecs = to_matrix(eig.eigenvectors);
  ASSERT_EQ(eig.eigenvalues.size(), n);

  // Ascending eigenvalues.
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_LE(eig.eigenvalues[k - 1], eig.eigenvalues[k] + 1e-12);
  }
  // A v_k = lambda_k v_k.
  for (std::size_t k = 0; k < n; ++k) {
    const CVector v = vecs.col(k);
    const CVector av = matvec(a, v);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(av[i] - eig.eigenvalues[k] * v[i]), 0.0, 1e-9)
          << "n=" << n << " k=" << k << " i=" << i;
    }
  }
  // V^H V = I.
  const CMatrix vhv = vecs.adjoint() * vecs;
  EXPECT_LT((vhv - CMatrix::identity(n)).max_abs(), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EighProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 30, 40));

TEST(Eigh, GramOfRankDeficientMatrixHasZeroEigenvalues) {
  Rng rng(5);
  // 6x3 of rank 3 -> gram 6x6 with exactly 3 (near) zero eigenvalues.
  const CMatrix x = random_complex(6, 3, rng);
  Workspace ws;
  const EighResult eig = eigh(x.gram(), ws);
  for (int k = 0; k < 3; ++k) {
    EXPECT_NEAR(eig.eigenvalues[k], 0.0, 1e-9);
  }
  EXPECT_GT(eig.eigenvalues[3], 1e-6);
}

TEST(Cholesky, FactorizationRoundTrip) {
  // The triangular solves land on a known x only if L L^T reproduces A.
  const RMatrix a{{4.0, 2.0}, {2.0, 3.0}};
  const RVector x_true{1.0, -2.0};
  const RVector x = solve_spd(a, matvec(a, x_true));
  EXPECT_NEAR(x[0], x_true[0], 1e-12);
  EXPECT_NEAR(x[1], x_true[1], 1e-12);
}

TEST(Cholesky, IndefiniteThrows) {
  const RMatrix a{{1.0, 2.0}, {2.0, 1.0}};
  const RVector b{1.0, 1.0};
  EXPECT_THROW((void)solve_spd(a, b), NumericalError);
}

TEST(SolveSpd, RecoversKnownSolution) {
  Rng rng(8);
  const std::size_t n = 6;
  RMatrix b(n, n);
  for (auto& v : b.flat()) v = rng.normal();
  RMatrix a = b * b.transpose();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;  // well conditioned
  RVector x_true(n);
  for (auto& v : x_true) v = rng.normal();
  const RVector rhs = matvec(a, x_true);
  const RVector x = solve_spd(a, rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(LevMar, SolvesLinearFitExactly) {
  // Residuals r_i = (a + b*t_i) - y_i with y from a=1.5, b=-2.
  const RVector t{0.0, 1.0, 2.0, 3.0, 4.0};
  RVector y(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) y[i] = 1.5 - 2.0 * t[i];
  const ResidualFn fn = [&](std::span<const double> p, std::span<double> r) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      r[i] = p[0] + p[1] * t[i] - y[i];
    }
  };
  const RVector x0{0.0, 0.0};
  const LevMarResult res = levenberg_marquardt(fn, t.size(), x0);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 1.5, 1e-6);
  EXPECT_NEAR(res.x[1], -2.0, 1e-6);
  EXPECT_NEAR(res.cost, 0.0, 1e-10);
}

TEST(LevMar, RosenbrockValleyConverges) {
  // Rosenbrock as least squares: r = (1-x, 10*(y-x^2)).
  const ResidualFn fn = [](std::span<const double> p, std::span<double> r) {
    r[0] = 1.0 - p[0];
    r[1] = 10.0 * (p[1] - p[0] * p[0]);
  };
  const RVector x0{-1.2, 1.0};
  LevMarOptions opts;
  opts.max_iterations = 300;
  const LevMarResult res = levenberg_marquardt(fn, 2, x0, opts);
  EXPECT_NEAR(res.x[0], 1.0, 1e-5);
  EXPECT_NEAR(res.x[1], 1.0, 1e-5);
}

TEST(SolveComplex, RecoversKnownSolution) {
  Rng rng(31);
  const std::size_t n = 7;
  const CMatrix a = random_complex(n, n, rng);
  CVector x_true(n);
  for (auto& v : x_true) v = cplx(rng.normal(), rng.normal());
  const CVector b = matvec(a, x_true);
  Workspace ws;
  CVector x(n);
  solve_complex_into(a, b, x, ws);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(x[i] - x_true[i]), 1e-9);
  }
}

TEST(SolveComplex, SingularThrows) {
  CMatrix a(2, 2);
  a(0, 0) = a(0, 1) = cplx(1.0, 1.0);
  a(1, 0) = a(1, 1) = cplx(2.0, 2.0);
  const CVector b{cplx(1.0, 0.0), cplx(0.0, 0.0)};
  Workspace ws;
  CVector x(2);
  EXPECT_THROW(solve_complex_into(a, b, x, ws), NumericalError);
}

TEST(SolveComplex, ShapeMismatchThrows) {
  Workspace ws;
  CVector x2(2);
  CVector x3(3);
  EXPECT_THROW(solve_complex_into(CMatrix(2, 3), CVector(2), x2, ws),
               ContractViolation);
  EXPECT_THROW(solve_complex_into(CMatrix(2, 2), CVector(3), x3, ws),
               ContractViolation);
}

TEST(EigGeneral, DiagonalMatrix) {
  CMatrix d(3, 3);
  d(0, 0) = cplx(1.0, 2.0);
  d(1, 1) = cplx(-3.0, 0.5);
  d(2, 2) = cplx(0.0, -1.0);
  Workspace ws;
  const GeneralEigRef eig = eig_general(d, ws);
  // Every diagonal entry must appear among the eigenvalues.
  for (const cplx expected : {d(0, 0), d(1, 1), d(2, 2)}) {
    double best = 1e9;
    for (const cplx got : eig.eigenvalues) {
      best = std::min(best, std::abs(got - expected));
    }
    EXPECT_LT(best, 1e-10);
  }
}

TEST(EigGeneral, KnownRotationMatrix) {
  // [[0, -1], [1, 0]] has eigenvalues +-i.
  CMatrix a(2, 2);
  a(0, 1) = cplx(-1.0, 0.0);
  a(1, 0) = cplx(1.0, 0.0);
  Workspace ws;
  const GeneralEigRef eig = eig_general(a, ws);
  std::vector<double> imags{eig.eigenvalues[0].imag(),
                            eig.eigenvalues[1].imag()};
  std::sort(imags.begin(), imags.end());
  EXPECT_NEAR(imags[0], -1.0, 1e-10);
  EXPECT_NEAR(imags[1], 1.0, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[0].real(), 0.0, 1e-10);
}

class EigGeneralProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigGeneralProperty, EigenpairsSatisfyDefinition) {
  const std::size_t n = GetParam();
  Rng rng(4000 + n);
  const CMatrix a = random_complex(n, n, rng);
  Workspace ws;
  const GeneralEigRef eig = eig_general(a, ws);
  const CMatrix vecs = to_matrix(eig.eigenvectors);
  ASSERT_EQ(eig.eigenvalues.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    const CVector v = vecs.col(k);
    EXPECT_NEAR(norm2(std::span<const cplx>(v)), 1.0, 1e-9);
    const CVector av = matvec(a, v);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(av[i] - eig.eigenvalues[k] * v[i]), 1e-6)
          << "n=" << n << " k=" << k;
    }
  }
  // Trace check: sum of eigenvalues equals trace.
  cplx trace{}, sum{};
  for (std::size_t i = 0; i < n; ++i) trace += a(i, i);
  for (const cplx ev : eig.eigenvalues) sum += ev;
  EXPECT_LT(std::abs(trace - sum), 1e-8 * (1.0 + std::abs(trace)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigGeneralProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12));

TEST(EigGeneral, AgreesWithHermitianSolverOnHermitianInput) {
  Rng rng(41);
  const CMatrix h = random_hermitian(6, rng);
  Workspace ws;
  const GeneralEigRef ge = eig_general(h, ws);
  const EighResult he = eigh(h, ws);
  std::vector<double> general_real;
  for (const cplx ev : ge.eigenvalues) {
    EXPECT_NEAR(ev.imag(), 0.0, 1e-8);
    general_real.push_back(ev.real());
  }
  std::sort(general_real.begin(), general_real.end());
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(general_real[i], he.eigenvalues[i], 1e-8);
  }
}

TEST(EigGeneral, NonSquareThrows) {
  Workspace ws;
  EXPECT_THROW((void)eig_general(CMatrix(2, 3), ws), ContractViolation);
}

TEST(EigGeneral, JordanBlockEigenvaluesConverge) {
  // Defective matrix [[1, 1], [0, 1]]: both eigenvalues are 1 (the QR
  // iteration must still converge; eigenvectors are degenerate).
  CMatrix a(2, 2);
  a(0, 0) = a(0, 1) = a(1, 1) = cplx(1.0, 0.0);
  Workspace ws;
  const GeneralEigRef eig = eig_general(a, ws);
  for (const cplx ev : eig.eigenvalues) {
    EXPECT_LT(std::abs(ev - cplx(1.0, 0.0)), 1e-6);
  }
}

TEST(EigGeneral, UnitaryShiftMatrixEigenvaluesOnUnitCircle) {
  // Circular shift: eigenvalues are the 4th roots of unity — the exact
  // structure ESPRIT's shift operators have.
  CMatrix s(4, 4);
  s(0, 3) = s(1, 0) = s(2, 1) = s(3, 2) = cplx(1.0, 0.0);
  Workspace ws;
  const GeneralEigRef eig = eig_general(s, ws);
  for (const cplx ev : eig.eigenvalues) {
    EXPECT_NEAR(std::abs(ev), 1.0, 1e-10);
  }
  // All four roots present.
  for (const cplx root : {cplx(1, 0), cplx(-1, 0), cplx(0, 1), cplx(0, -1)}) {
    double best = 1e9;
    for (const cplx ev : eig.eigenvalues) {
      best = std::min(best, std::abs(ev - root));
    }
    EXPECT_LT(best, 1e-9);
  }
}

TEST(Matrix, RowSpanAndSetCol) {
  RMatrix m(2, 3);
  auto row = m.row(1);
  row[2] = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
  const std::vector<double> col{5.0, 6.0};
  m.set_col(0, col);
  EXPECT_DOUBLE_EQ(m(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 6.0);
  EXPECT_THROW(m.set_col(0, std::vector<double>{1.0}), ContractViolation);
}

TEST(Matrix, ColExtraction) {
  const RMatrix m{{1.0, 2.0}, {3.0, 4.0}};
  const auto c = m.col(1);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0], 2.0);
  EXPECT_DOUBLE_EQ(c[1], 4.0);
}

TEST(Matrix, MaxAbsAndEquality) {
  CMatrix a(2, 2);
  a(0, 1) = cplx(3.0, -4.0);
  EXPECT_DOUBLE_EQ(a.max_abs(), 5.0);
  CMatrix b = a;
  EXPECT_TRUE(a == b);
  b(1, 1) = cplx(1e-30, 0.0);
  EXPECT_FALSE(a == b);
}

TEST(LevMar, UnderdeterminedThrows) {
  const ResidualFn fn = [](std::span<const double> p, std::span<double> r) {
    r[0] = p[0];
  };
  const RVector x0{1.0, 1.0};  // 2 params, 1 residual
  EXPECT_THROW(levenberg_marquardt(fn, 1, x0), ContractViolation);
}

}  // namespace
}  // namespace spotfi
