#include "linalg/hermitian_eig.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "linalg/numerics.hpp"

namespace spotfi {
namespace {

/// Sum of squared magnitudes of the strict upper triangle.
double off_diagonal_mass(ConstCMatrixView a) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = i + 1; j < a.cols(); ++j) s += std::norm(a(i, j));
  return s;
}

double max_abs(ConstCMatrixView a) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      m = std::max(m, std::abs(a(i, j)));
  return m;
}

}  // namespace

HermitianEigRef eigh(ConstCMatrixView input, Workspace& ws) {
  SPOTFI_EXPECTS(input.rows() == input.cols(),
                 "eigh requires a square matrix");
  const std::size_t n = input.rows();

  // Results first: they must outlive the scratch frame below.
  HermitianEigRef result;
  result.eigenvalues = ws.take<double>(n);
  result.eigenvectors = workspace_matrix<cplx>(ws, n, n);
  if (n == 0) return result;

  // A poisoned input would only churn NaN through all 64 sweeps; report
  // it as a non-convergence immediately.
  for (std::size_t i = 0; i < n; ++i) {
    for (const cplx& v : input.row(i)) {
      if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
        result.converged = false;
        result.rcond = 0.0;
        result.off_diagonal_residual =
            std::numeric_limits<double>::infinity();
        std::fill(result.eigenvalues.begin(), result.eigenvalues.end(),
                  std::numeric_limits<double>::quiet_NaN());
        for (std::size_t k = 0; k < n; ++k) result.eigenvectors(k, k) = 1.0;
        count_numerics(&NumericsCounters::eigh_nonconverged);
        return result;
      }
    }
  }

  Workspace::Frame scratch(ws);

  // Symmetrize: a <- (a + a^H)/2. Also measures how non-Hermitian the
  // input was so grossly wrong inputs fail fast.
  CMatrixView a = workspace_clone<cplx>(ws, input);
  double asym = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const cplx upper = a(i, j);
      const cplx lower = std::conj(a(j, i));
      asym = std::max(asym, std::abs(upper - lower));
      const cplx avg = 0.5 * (upper + lower);
      a(i, j) = avg;
      a(j, i) = std::conj(avg);
    }
    a(i, i) = cplx(a(i, i).real(), 0.0);
  }
  const double scale = std::max(max_abs(a), 1e-300);
  SPOTFI_EXPECTS(asym <= 1e-8 * std::max(scale, 1.0),
                 "eigh input is not Hermitian");

  CMatrixView v = workspace_matrix<cplx>(ws, n, n);
  for (std::size_t i = 0; i < n; ++i) v(i, i) = 1.0;
  const double tol = 1e-26 * scale * scale * static_cast<double>(n * n);
  constexpr int kMaxSweeps = 64;

  int sweep = 0;
  for (; sweep < kMaxSweeps; ++sweep) {
    if (off_diagonal_mass(a) <= tol) break;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const cplx apq = a(p, q);
        const double abs_apq = std::abs(apq);
        if (abs_apq <= 1e-300) {
          a(p, q) = a(q, p) = cplx{};
          continue;
        }
        // Phase rotation to make the pivot real: scale column q (and row q)
        // by conj(phase) so a(p,q) becomes |a(p,q)|.
        const cplx phase = apq / abs_apq;
        const cplx cphase = std::conj(phase);
        // D^H A D with D = diag(..., cphase at q, ...): scales column q by
        // cphase and row q by phase; the diagonal a(q,q) is unchanged.
        for (std::size_t k = 0; k < n; ++k) {
          if (k == q) continue;
          a(k, q) *= cphase;
          a(q, k) = std::conj(a(k, q));
        }
        for (std::size_t k = 0; k < n; ++k) v(k, q) *= cphase;

        // Real Jacobi rotation annihilating the (now real) pivot.
        const double app = a(p, p).real();
        const double aqq = a(q, q).real();
        const double b = a(p, q).real();  // == |apq|
        const double theta = (aqq - app) / (2.0 * b);
        const double t =
            (theta >= 0.0 ? 1.0 : -1.0) /
            (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          if (k == p || k == q) continue;
          const cplx akp = a(k, p);
          const cplx akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
          a(p, k) = std::conj(a(k, p));
          a(q, k) = std::conj(a(k, q));
        }
        a(p, p) = cplx(app - t * b, 0.0);
        a(q, q) = cplx(aqq + t * b, 0.0);
        a(p, q) = a(q, p) = cplx{};

        for (std::size_t k = 0; k < n; ++k) {
          const cplx vkp = v(k, p);
          const cplx vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
  }
  result.sweeps = sweep;
  const double final_mass = off_diagonal_mass(a);
  result.off_diagonal_residual = final_mass / (scale * scale);
  if (sweep == kMaxSweeps && final_mass > tol) {
    // Surface the partial decomposition with diagnostics instead of a
    // bare convergence throw; callers decide (noise_subspace throws).
    result.converged = false;
    count_numerics(&NumericsCounters::eigh_nonconverged);
  }

  // Sort ascending, permuting eigenvector columns to match.
  const std::span<std::size_t> order = ws.take<std::size_t>(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return a(i, i).real() < a(j, j).real();
  });

  for (std::size_t k = 0; k < n; ++k) {
    result.eigenvalues[k] = a(order[k], order[k]).real();
    for (std::size_t i = 0; i < n; ++i)
      result.eigenvectors(i, k) = v(i, order[k]);
  }
  double abs_min = std::abs(result.eigenvalues.front());
  double abs_max = abs_min;
  for (const double ev : result.eigenvalues) {
    abs_min = std::min(abs_min, std::abs(ev));
    abs_max = std::max(abs_max, std::abs(ev));
  }
  result.rcond = abs_max > 0.0 ? abs_min / abs_max : 0.0;
  return result;
}

HermitianEig eigh(const CMatrix& input) {
  Workspace& ws = thread_workspace();
  Workspace::Frame frame(ws);
  const HermitianEigRef r = eigh(input.view(), ws);

  HermitianEig out;
  out.converged = r.converged;
  out.sweeps = r.sweeps;
  out.off_diagonal_residual = r.off_diagonal_residual;
  out.rcond = r.rcond;
  out.eigenvalues.assign(r.eigenvalues.begin(), r.eigenvalues.end());
  const std::size_t n = input.rows();
  out.eigenvectors = CMatrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const cplx* src = r.eigenvectors.row_ptr(i);
    cplx* dst = out.eigenvectors.row(i).data();
    std::copy(src, src + n, dst);
  }
  return out;
}

SymmetricEig eigh(const RMatrix& a) {
  CMatrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) c(i, j) = cplx(a(i, j), 0.0);
  HermitianEig he = eigh(c);

  SymmetricEig result;
  result.eigenvalues = std::move(he.eigenvalues);
  result.converged = he.converged;
  result.sweeps = he.sweeps;
  result.off_diagonal_residual = he.off_diagonal_residual;
  result.rcond = he.rcond;
  result.eigenvectors = RMatrix(a.rows(), a.cols());
  // Eigenvectors of a real symmetric matrix are real up to a unit complex
  // phase; rotate each column so its largest entry is real before dropping
  // the imaginary part.
  for (std::size_t j = 0; j < a.cols(); ++j) {
    std::size_t imax = 0;
    double best = -1.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
      const double m = std::abs(he.eigenvectors(i, j));
      if (m > best) {
        best = m;
        imax = i;
      }
    }
    const cplx pivot = he.eigenvectors(imax, j);
    const cplx rot =
        std::abs(pivot) > 0.0 ? std::conj(pivot) / std::abs(pivot) : cplx{1.0};
    for (std::size_t i = 0; i < a.rows(); ++i)
      result.eigenvectors(i, j) = (he.eigenvectors(i, j) * rot).real();
  }
  return result;
}

}  // namespace spotfi
