#include "linalg/eig_general.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "linalg/numerics.hpp"

namespace spotfi {

void solve_complex_into(ConstCMatrixView a, std::span<const cplx> b,
                        std::span<cplx> x, Workspace& ws) {
  SPOTFI_EXPECTS(a.rows() == a.cols(), "solve_complex requires square A");
  SPOTFI_EXPECTS(a.rows() == b.size(), "solve_complex shape mismatch");
  SPOTFI_EXPECTS(x.size() == b.size(), "solve_complex solution size mismatch");
  const std::size_t n = a.rows();
  Workspace::Frame frame(ws);
  const CMatrixView lu = workspace_clone<cplx>(ws, a);
  std::copy(b.begin(), b.end(), x.begin());

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting on column k.
    std::size_t pivot = k;
    double best = std::abs(lu(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = std::abs(lu(i, k));
      if (m > best) {
        best = m;
        pivot = i;
      }
    }
    if (best < 1e-300) throw NumericalError("solve_complex: singular matrix");
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu(k, j), lu(pivot, j));
      std::swap(x[k], x[pivot]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const cplx factor = lu(i, k) / lu(k, k);
      lu(i, k) = factor;
      for (std::size_t j = k + 1; j < n; ++j) lu(i, j) -= factor * lu(k, j);
      x[i] -= factor * x[k];
    }
  }
  // Back substitution.
  for (std::size_t ii = n; ii-- > 0;) {
    cplx sum = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= lu(ii, j) * x[j];
    x[ii] = sum / lu(ii, ii);
  }
}

void solve_complex_regularized_into(ConstCMatrixView a,
                                    std::span<const cplx> b,
                                    std::span<cplx> x, Workspace& ws) {
  constexpr double kInitialRidge = 1e-12;  // of max|A|
  constexpr double kRidgeGrowth = 100.0;
  constexpr int kMaxRidgeSteps = 6;
  SPOTFI_EXPECTS(a.rows() == a.cols(), "solve_complex requires square A");
  SPOTFI_EXPECTS(a.rows() == b.size(), "solve_complex shape mismatch");
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) {
    for (const cplx& v : a.row(i)) {
      if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
        throw NumericalError("solve_complex: matrix has non-finite entries");
      }
    }
  }
  for (const cplx& v : b) {
    if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
      throw NumericalError("solve_complex: rhs has non-finite entries");
    }
  }
  try {
    solve_complex_into(a, b, x, ws);
    return;
  } catch (const NumericalError&) {
    // Fall through to the jitter ladder.
  }
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const cplx& v : a.row(i)) max_abs = std::max(max_abs, std::abs(v));
  }
  const double scale = std::max(max_abs, 1e-300);
  double ridge = kInitialRidge * scale;
  Workspace::Frame frame(ws);
  const CMatrixView damped = workspace_matrix<cplx>(ws, n, n);
  for (int attempt = 0; attempt < kMaxRidgeSteps; ++attempt) {
    for (std::size_t i = 0; i < n; ++i) {
      const cplx* src = a.row_ptr(i);
      std::copy(src, src + n, damped.row_ptr(i));
      damped(i, i) += cplx(ridge, 0.0);
    }
    try {
      solve_complex_into(ConstCMatrixView(damped), b, x, ws);
      count_numerics(&NumericsCounters::solve_regularized);
      return;
    } catch (const NumericalError&) {
      ridge *= kRidgeGrowth;
    }
  }
  throw NumericalError("solve_complex: regularization ladder exhausted");
}

namespace {

/// Complex Givens rotation zeroing `b` in the pair (a, b):
/// [c, s; -conj(s), c] * [a; b] = [r; 0] with real c.
struct Givens {
  double c = 1.0;
  cplx s{};
};

Givens make_givens(cplx a, cplx b) {
  const double norm = std::hypot(std::abs(a), std::abs(b));
  if (norm < 1e-300 || std::abs(b) == 0.0) return {};
  if (std::abs(a) == 0.0) {
    return {0.0, std::conj(b) / std::abs(b)};
  }
  const cplx sign_a = a / std::abs(a);
  return {std::abs(a) / norm, sign_a * std::conj(b) / norm};
}

/// Householder reduction of A to upper Hessenberg form (in place).
/// `v` is reflector scratch of size n, contents clobbered.
void hessenberg(CMatrixView h, std::span<cplx> v) {
  const std::size_t n = h.rows();
  for (std::size_t k = 0; k + 2 < n; ++k) {
    // Zero column k below the subdiagonal with a Householder reflector on
    // rows k+1..n-1.
    double norm = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) norm += std::norm(h(i, k));
    norm = std::sqrt(norm);
    if (norm < 1e-300) continue;
    const cplx pivot = h(k + 1, k);
    const cplx alpha =
        std::abs(pivot) > 0.0 ? -(pivot / std::abs(pivot)) * norm
                              : cplx(-norm, 0.0);
    std::fill(v.begin(), v.end(), cplx{});
    v[k + 1] = pivot - alpha;
    for (std::size_t i = k + 2; i < n; ++i) v[i] = h(i, k);
    double vtv = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) vtv += std::norm(v[i]);
    if (vtv < 1e-300) continue;

    // H <- P H P with P = I - 2 v v^H / (v^H v).
    for (std::size_t j = 0; j < n; ++j) {  // left: rows
      cplx proj{};
      for (std::size_t i = k + 1; i < n; ++i) {
        proj += std::conj(v[i]) * h(i, j);
      }
      const cplx f = 2.0 * proj / vtv;
      for (std::size_t i = k + 1; i < n; ++i) h(i, j) -= f * v[i];
    }
    for (std::size_t i = 0; i < n; ++i) {  // right: columns
      cplx proj{};
      for (std::size_t j = k + 1; j < n; ++j) proj += h(i, j) * v[j];
      const cplx f = 2.0 * proj / vtv;
      for (std::size_t j = k + 1; j < n; ++j) {
        h(i, j) -= f * std::conj(v[j]);
      }
    }
  }
}

/// Wilkinson shift: eigenvalue of the trailing 2x2 closest to h(m, m).
cplx wilkinson_shift(ConstCMatrixView h, std::size_t m) {
  const cplx a = h(m - 1, m - 1);
  const cplx b = h(m - 1, m);
  const cplx c = h(m, m - 1);
  const cplx d = h(m, m);
  const cplx tr2 = 0.5 * (a + d);
  const cplx disc = std::sqrt(tr2 * tr2 - (a * d - b * c));
  const cplx l1 = tr2 + disc;
  const cplx l2 = tr2 - disc;
  return std::abs(l1 - d) < std::abs(l2 - d) ? l1 : l2;
}

double max_abs_of(ConstCMatrixView a) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (const cplx& v : a.row(i)) m = std::max(m, std::abs(v));
  }
  return m;
}

}  // namespace

GeneralEigRef eig_general(ConstCMatrixView input, Workspace& ws) {
  SPOTFI_EXPECTS(input.rows() == input.cols(),
                 "eig_general requires a square matrix");
  const std::size_t n = input.rows();
  GeneralEigRef result;
  result.eigenvalues = ws.take<cplx>(n);
  result.eigenvectors = workspace_matrix<cplx>(ws, n, n);
  if (n == 0) return result;
  for (std::size_t row = 0; row < n; ++row) {
    for (const cplx& v : input.row(row)) {
      if (std::isfinite(v.real()) && std::isfinite(v.imag())) continue;
      // Poisoned input: the QR iteration would only churn NaN until the
      // stall limit. Report a non-convergence up front.
      result.converged = false;
      result.max_residual = std::numeric_limits<double>::infinity();
      std::fill(result.eigenvalues.begin(), result.eigenvalues.end(),
                cplx(std::numeric_limits<double>::quiet_NaN(), 0.0));
      for (std::size_t i = 0; i < n; ++i) result.eigenvectors(i, i) = 1.0;
      count_numerics(&NumericsCounters::eig_general_nonconverged);
      return result;
    }
  }
  if (n == 1) {
    result.eigenvalues[0] = input(0, 0);
    result.eigenvectors(0, 0) = 1.0;
    return result;
  }

  Workspace::Frame scratch(ws);
  const CMatrixView h = workspace_clone<cplx>(ws, input);
  const std::span<cplx> reflector = ws.take<cplx>(n);
  hessenberg(h, reflector);
  const double scale = std::max(max_abs_of(ConstCMatrixView(h)), 1e-300);

  // Shifted QR with deflation on the active block [0, m].
  const std::span<Givens> rotations = ws.take<Givens>(n - 1);
  std::size_t m = n - 1;
  int iterations_since_deflation = 0;
  constexpr int kMaxPerEigenvalue = 60;
  while (true) {
    // Deflate all negligible subdiagonals.
    while (m > 0) {
      const double sub = std::abs(h(m, m - 1));
      if (sub <=
          1e-14 * (std::abs(h(m - 1, m - 1)) + std::abs(h(m, m)) + scale)) {
        h(m, m - 1) = cplx{};
        --m;
        iterations_since_deflation = 0;
      } else {
        break;
      }
    }
    if (m == 0) break;
    if (++iterations_since_deflation > kMaxPerEigenvalue) {
      // Stalled (near-defective input): keep the partial Schur diagonal as
      // the eigenvalue estimates and surface the stall via diagnostics.
      result.converged = false;
      count_numerics(&NumericsCounters::eig_general_nonconverged);
      break;
    }
    // Exceptional shift every 20 stalled iterations.
    const cplx mu = (iterations_since_deflation % 20 == 0)
                        ? h(m, m) + cplx(std::abs(h(m, m - 1)), 0.0)
                        : wilkinson_shift(ConstCMatrixView(h), m);

    // Explicit shifted QR step on the active block via Givens rotations:
    // H - mu I = Q R, then H <- R Q + mu I.
    for (std::size_t i = 0; i <= m; ++i) h(i, i) -= mu;
    for (std::size_t k = 0; k < m; ++k) {
      const Givens g = make_givens(h(k, k), h(k + 1, k));
      rotations[k] = g;
      // Apply from the left to rows k, k+1.
      for (std::size_t j = k; j <= m; ++j) {
        const cplx t1 = h(k, j);
        const cplx t2 = h(k + 1, j);
        h(k, j) = g.c * t1 + g.s * t2;
        h(k + 1, j) = -std::conj(g.s) * t1 + g.c * t2;
      }
      h(k + 1, k) = cplx{};  // exact zero by construction
    }
    for (std::size_t k = 0; k < m; ++k) {
      const Givens g = rotations[k];
      // Apply G^H from the right to columns k, k+1 (rows 0..k+1 are the
      // only ones with nonzeros there; row k+1 regains the Hessenberg
      // subdiagonal).
      // G^H block = [[c, -s], [conj(s), c]] acting on column pairs.
      for (std::size_t i = 0; i <= std::min(k + 1, m); ++i) {
        const cplx t1 = h(i, k);
        const cplx t2 = h(i, k + 1);
        h(i, k) = t1 * g.c + t2 * std::conj(g.s);
        h(i, k + 1) = -t1 * g.s + t2 * g.c;
      }
    }
    for (std::size_t i = 0; i <= m; ++i) h(i, i) += mu;
  }

  for (std::size_t i = 0; i < n; ++i) result.eigenvalues[i] = h(i, i);

  // Eigenvectors by inverse iteration on the original matrix.
  const CMatrixView shifted = workspace_matrix<cplx>(ws, n, n);
  const std::span<cplx> v = ws.take<cplx>(n);
  const std::span<cplx> v_next = ws.take<cplx>(n);
  Rng rng(0x5eedf00d);
  for (std::size_t k = 0; k < n; ++k) {
    const cplx lambda = result.eigenvalues[k];
    // Slightly perturbed shift keeps (A - shift I) nonsingular.
    const cplx shift =
        lambda + cplx(1e-9 * (1.0 + std::abs(lambda)),
                      1e-10 * (1.0 + std::abs(lambda)));
    for (std::size_t i = 0; i < n; ++i) {
      const cplx* src = input.row_ptr(i);
      std::copy(src, src + n, shifted.row_ptr(i));
      shifted(i, i) -= shift;
    }

    for (auto& e : v) e = cplx(rng.normal(), rng.normal());
    for (int iter = 0; iter < 3; ++iter) {
      try {
        solve_complex_into(ConstCMatrixView(shifted), v, v_next, ws);
      } catch (const NumericalError&) {
        break;  // exactly singular: v already spans the null direction
      }
      std::copy(v_next.begin(), v_next.end(), v.begin());
      const double nv = norm2(std::span<const cplx>(v));
      if (nv < 1e-300) break;
      for (auto& e : v) e /= nv;
    }
    const double nv = norm2(std::span<const cplx>(v));
    SPOTFI_ASSERT(nv > 0.0, "inverse iteration collapsed");
    for (std::size_t i = 0; i < n; ++i) result.eigenvectors(i, k) = v[i] / nv;
  }

  // Residual diagnostic: how well each pair satisfies A v = lambda v,
  // relative to the matrix scale. Cheap at ESPRIT sizes (n <= ~16).
  for (std::size_t k = 0; k < n; ++k) {
    double res = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cplx acc = -result.eigenvalues[k] * result.eigenvectors(i, k);
      for (std::size_t j = 0; j < n; ++j) {
        acc += input(i, j) * result.eigenvectors(j, k);
      }
      res += std::norm(acc);
    }
    result.max_residual =
        std::max(result.max_residual, std::sqrt(res) / scale);
  }
  return result;
}

}  // namespace spotfi
