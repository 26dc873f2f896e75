// The std::complex kernels that src/ now computes as split real
// arithmetic on interleaved (re, im) doubles, kept test-only as the
// reference those must reproduce bit for bit (SplitRealKernels.*): eigh
// (Householder reduction, QL, back-transform, residual check and the
// std::abs scale prologue), the complex branch of gram_into, and
// JointMusicEstimator's sweep tables with the cells they give. Every
// complex product here is std::complex's operator*.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "linalg/hermitian_eig.hpp"
#include "linalg/matrix.hpp"

namespace spotfi::complex_reference {

/// g = a a^H, lower triangle computed and mirrored, two accumulators.
inline void gram_into(ConstCMatrixView a, CMatrixView g) {
  const std::size_t cols = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const cplx* ri = a.row_ptr(i);
    cplx* grow = g.row_ptr(i);
    for (std::size_t j = 0; j <= i; ++j) {
      const cplx* rj = a.row_ptr(j);
      cplx acc0{};
      cplx acc1{};
      std::size_t k = 0;
      for (; k + 1 < cols; k += 2) {
        acc0 += ri[k] * std::conj(rj[k]);
        acc1 += ri[k + 1] * std::conj(rj[k + 1]);
      }
      if (k < cols) acc0 += ri[k] * std::conj(rj[k]);
      const cplx acc = acc0 + acc1;
      grow[j] = acc;
      g(j, i) = std::conj(acc);
    }
  }
}

/// Largest per-eigenpair residual ||A v - lambda v|| / ||A||_F that still
/// counts as converged. A backward-stable solve leaves a few n * eps; the
/// bound sits orders of magnitude above that and orders below anything
/// that could move a signal/noise split.
inline constexpr double kResidualTolerance = 1e-10;

/// QL iterations allowed per eigenvalue (LAPACK's zsteqr budget).
inline constexpr std::size_t kQlIterationsPerEigenvalue = 30;

/// Householder reduction of the Hermitian matrix held in the lower
/// triangle of `a` (diagonal included) to tridiagonal form:
/// H_{n-2} ... H_0 A H_0 ... H_{n-2} = T. Reflector k is
/// H_k = I - beta[k] u u^H on indices k+1..n-1 (the identity when
/// beta[k] == 0), with u left in column k of `a` below the diagonal.
/// On return d holds T's diagonal and e its complex subdiagonal,
/// e[k] = T(k+1, k). The strict upper triangle of `a` is never touched.
/// `u` and `p` are length-n scratch.
inline void tridiagonalize(CMatrixView a, std::span<double> d,
                           std::span<cplx> e, std::span<double> beta,
                           std::span<cplx> u, std::span<cplx> p) {
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const std::size_t m = n - k - 1;  // length of the column below (k, k)
    const cplx alpha = a(k + 1, k);
    double tail = 0.0;
    for (std::size_t i = k + 2; i < n; ++i) tail += std::norm(a(i, k));
    if (tail == 0.0) {
      e[k] = alpha;  // already tridiagonal here (always so for the last k)
      continue;
    }
    // u = x + phase r e_1 sends x to -phase r e_1 without cancellation.
    const double abs_alpha = std::abs(alpha);
    const double r = std::sqrt(abs_alpha * abs_alpha + tail);
    const cplx phase = abs_alpha > 0.0 ? alpha / abs_alpha : cplx{1.0};
    a(k + 1, k) = phase * (abs_alpha + r);
    e[k] = -phase * r;
    const double b =
        2.0 / ((abs_alpha + r) * (abs_alpha + r) + tail);  // 2 / u^H u
    beta[k] = b;
    for (std::size_t i = 0; i < m; ++i) u[i] = a(k + 1 + i, k);

    // p = b A22 u, with A22 = a(k+1.., k+1..) read from its lower triangle.
    std::fill_n(p.begin(), m, cplx{});
    for (std::size_t i = 0; i < m; ++i) {
      const cplx* row = a.row_ptr(k + 1 + i) + (k + 1);
      const cplx ui = u[i];
      cplx acc = row[i].real() * ui;
      for (std::size_t j = 0; j < i; ++j) {
        acc += row[j] * u[j];
        p[j] += std::conj(row[j]) * ui;
      }
      p[i] += acc;
    }
    cplx uhp{};
    for (std::size_t i = 0; i < m; ++i) {
      p[i] *= b;
      uhp += std::conj(u[i]) * p[i];
    }
    // w = p - gamma u with gamma = b/2 u^H p (real: A22 is Hermitian), so
    // that H A22 H = A22 - u w^H - w u^H. w overwrites p.
    const double gamma = 0.5 * b * uhp.real();
    for (std::size_t i = 0; i < m; ++i) p[i] -= gamma * u[i];
    for (std::size_t i = 0; i < m; ++i) {
      cplx* row = a.row_ptr(k + 1 + i) + (k + 1);
      const cplx ui = u[i];
      const cplx wi = p[i];
      for (std::size_t j = 0; j <= i; ++j) {
        row[j] -= ui * std::conj(p[j]) + wi * std::conj(u[j]);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) d[i] = a(i, i).real();
}

/// Q = H_0 H_1 ... H_{n-2} from the reflectors tridiagonalize() left in
/// `a`, built into the zero-filled `q` by backward accumulation (H_k only
/// mixes rows and columns k+1.. of the partial product).
inline void accumulate_reflectors(ConstCMatrixView a,
                                  std::span<const double> beta, CMatrixView q,
                                  std::span<cplx> u, std::span<cplx> w) {
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i) q(i, i) = 1.0;
  for (std::size_t k = n; k-- > 0;) {
    if (beta[k] == 0.0) continue;
    const std::size_t m = n - k - 1;
    for (std::size_t i = 0; i < m; ++i) u[i] = a(k + 1 + i, k);
    // Q22 <- Q22 - beta u (u^H Q22).
    std::fill_n(w.begin(), m, cplx{});
    for (std::size_t i = 0; i < m; ++i) {
      const cplx* row = q.row_ptr(k + 1 + i) + (k + 1);
      const cplx ci = std::conj(u[i]);
      for (std::size_t j = 0; j < m; ++j) w[j] += ci * row[j];
    }
    for (std::size_t i = 0; i < m; ++i) {
      cplx* row = q.row_ptr(k + 1 + i) + (k + 1);
      const cplx f = beta[k] * u[i];
      for (std::size_t j = 0; j < m; ++j) row[j] -= f * w[j];
    }
  }
}

/// Implicit QL with Wilkinson shifts on the real symmetric tridiagonal
/// (diagonal d, subdiagonal off[0..n-2]; off[n-1] must be 0). Overwrites d
/// with the eigenvalues (unsorted) and rotates the rows of `zt`, which
/// enters as the identity, so row k ends as the eigenvector of d[k].
/// Returns false if the iteration budget ran out first.
inline bool tridiagonal_ql(std::span<double> d, std::span<double> off,
                           RMatrixView zt) {
  const std::size_t n = d.size();
  const double eps = std::numeric_limits<double>::epsilon();
  std::size_t budget = kQlIterationsPerEigenvalue * n;
  for (std::size_t l = 0; l < n; ++l) {
    for (;;) {
      // The unreduced block starting at l ends at the first negligible
      // subdiagonal entry.
      std::size_t m = l;
      while (m + 1 < n &&
             std::abs(off[m]) > eps * (std::abs(d[m]) + std::abs(d[m + 1]))) {
        ++m;
      }
      if (m == l) break;  // d[l] has converged
      if (budget-- == 0) return false;

      // Wilkinson shift: the eigenvalue of the leading 2x2 nearer d[l].
      double g = (d[l + 1] - d[l]) / (2.0 * off[l]);
      double r = std::hypot(g, 1.0);
      g = d[m] - d[l] + off[l] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      bool split = false;
      // Chase the bulge from the bottom of the block up to l.
      for (std::size_t i = m; i-- > l;) {
        const double f = s * off[i];
        const double b = c * off[i];
        r = std::hypot(f, g);
        off[i + 1] = r;
        if (r == 0.0) {
          // The bulge vanished: the block splits at i + 1; start over.
          d[i + 1] -= p;
          off[m] = 0.0;
          split = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        double* zi = zt.row_ptr(i);
        double* zi1 = zt.row_ptr(i + 1);
        for (std::size_t k = 0; k < n; ++k) {
          const double t = zi1[k];
          zi1[k] = s * zi[k] + c * t;
          zi[k] = c * zi[k] - s * t;
        }
      }
      if (split) continue;
      d[l] -= p;
      off[l] = g;
      off[m] = 0.0;
    }
  }
  return true;
}

/// max_k ||A v_k - lambda_k v_k||_2 against the symmetrized input, whose
/// strict upper triangle `a` still holds (its diagonal is `diag`).
/// `row` and `acc` are length-n scratch, `res2` length-n accumulators.
inline double max_eigenpair_residual(ConstCMatrixView a,
                                     std::span<const double> diag,
                                     std::span<const double> lambda,
                                     ConstCMatrixView v, std::span<cplx> row,
                                     std::span<cplx> acc,
                                     std::span<double> res2) {
  const std::size_t n = a.rows();
  std::fill(res2.begin(), res2.end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) row[j] = std::conj(a(j, i));
    row[i] = diag[i];
    for (std::size_t j = i + 1; j < n; ++j) row[j] = a(i, j);
    std::fill(acc.begin(), acc.end(), cplx{});
    for (std::size_t j = 0; j < n; ++j) {
      const cplx aij = row[j];
      const cplx* vj = v.row_ptr(j);
      for (std::size_t k = 0; k < n; ++k) acc[k] += aij * vj[k];
    }
    const cplx* vi = v.row_ptr(i);
    for (std::size_t k = 0; k < n; ++k) {
      res2[k] += std::norm(acc[k] - lambda[k] * vi[k]);
    }
  }
  double worst = 0.0;
  for (const double r2 : res2) worst = std::max(worst, std::sqrt(r2));
  return worst;
}

inline EighResult eigh(ConstCMatrixView input, Workspace& ws) {
  SPOTFI_EXPECTS(input.rows() == input.cols(),
                 "eigh requires a square matrix");
  const std::size_t n = input.rows();

  // Results first: they must outlive the scratch frame below.
  EighResult result;
  result.eigenvalues = ws.take<double>(n);
  result.eigenvectors = workspace_matrix<cplx>(ws, n, n);
  if (n == 0) return result;

  // A poisoned input would only churn NaN through the QL iteration;
  // report it as a non-convergence immediately.
  for (std::size_t i = 0; i < n; ++i) {
    for (const cplx& v : input.row(i)) {
      if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
        result.converged = false;
        result.rcond = 0.0;
        result.max_residual = std::numeric_limits<double>::infinity();
        std::fill(result.eigenvalues.begin(), result.eigenvalues.end(),
                  std::numeric_limits<double>::quiet_NaN());
        for (std::size_t k = 0; k < n; ++k) result.eigenvectors(k, k) = 1.0;
        return result;
      }
    }
  }

  Workspace::Frame scratch(ws);

  // Symmetrize: a <- (a + a^H)/2. Also measures how non-Hermitian the
  // input was so grossly wrong inputs fail fast.
  CMatrixView a = workspace_clone<cplx>(ws, input);
  double asym = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const cplx upper = a(i, j);
      const cplx lower = std::conj(a(j, i));
      asym = std::max(asym, std::abs(upper - lower));
      const cplx avg = 0.5 * (upper + lower);
      a(i, j) = avg;
      a(j, i) = std::conj(avg);
      scale = std::max(scale, std::abs(avg));
    }
  }
  SPOTFI_EXPECTS(asym <= 1e-8 * std::max(scale, 1.0),
                 "eigh input is not Hermitian");

  // Work at unit scale, so the sums of squares below (reflector norms,
  // ||A||_F) neither underflow nor overflow for any finite input. The
  // factor is a power of two: scaling is exact, and the eigenvectors are
  // bit for bit those of the unscaled matrix wherever that stays in range.
  int exponent = 0;
  if (scale > 0.0) std::frexp(scale, &exponent);
  const double unit = std::ldexp(1.0, -exponent);
  const std::span<double> diag = ws.take<double>(n);
  double frob2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (cplx& v : a.row(i)) {
      v *= unit;
      frob2 += std::norm(v);
    }
    diag[i] = a(i, i).real();
  }

  // A = Q T Q^H with T Hermitian tridiagonal; Q is built in the result's
  // eigenvector slab.
  const std::span<double> d = ws.take<double>(n);
  const std::span<cplx> e = ws.take<cplx>(n);
  const std::span<double> beta = ws.take<double>(n);
  const std::span<cplx> u = ws.take<cplx>(n);
  const std::span<cplx> p = ws.take<cplx>(n);
  tridiagonalize(a, d, e, beta, u, p);
  const CMatrixView q = result.eigenvectors;
  accumulate_reflectors(a, beta, q, u, p);

  // T = D T' D^H with D = diag(delta) unitary and T' real: delta_{k+1}
  // carries e[k]'s phase so that T'(k+1, k) = |e[k]|. beta is spent, so
  // its storage takes T''s subdiagonal.
  const std::span<cplx> delta = u;
  const std::span<double> off = beta;
  delta[0] = 1.0;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    const double mag = std::abs(e[k]);
    off[k] = mag;
    delta[k + 1] = mag > 0.0 ? delta[k] * (e[k] / mag) : delta[k];
  }
  off[n - 1] = 0.0;

  // T' = Z diag(d) Z^T, so A's eigenvectors are the columns of Q D Z.
  const RMatrixView zt = workspace_matrix<double>(ws, n, n);
  for (std::size_t i = 0; i < n; ++i) zt(i, i) = 1.0;
  const bool finished = tridiagonal_ql(d, off, zt);

  // Sort ascending; the product Q D Z writes the columns in that order.
  const std::span<std::size_t> order = ws.take<std::size_t>(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return d[i] < d[j] || (d[i] == d[j] && i < j);
  });
  for (std::size_t k = 0; k < n; ++k) result.eigenvalues[k] = d[order[k]];
  const std::span<cplx> qd = p;
  for (std::size_t i = 0; i < n; ++i) {
    cplx* row = q.row_ptr(i);
    for (std::size_t j = 0; j < n; ++j) qd[j] = row[j] * delta[j];
    for (std::size_t k = 0; k < n; ++k) {
      const double* z = zt.row_ptr(order[k]);
      cplx acc{};
      for (std::size_t j = 0; j < n; ++j) acc += qd[j] * z[j];
      row[k] = acc;
    }
  }

  // e, p and d are spent; they hold the residual check's scratch.
  const double norm_a = std::sqrt(frob2);
  const double worst = max_eigenpair_residual(
      a, diag, result.eigenvalues, result.eigenvectors, e, p, d);
  result.max_residual = norm_a > 0.0 ? worst / norm_a : 0.0;
  result.converged = finished && result.max_residual <= kResidualTolerance;
  for (double& ev : result.eigenvalues) ev = std::ldexp(ev, exponent);

  double abs_min = std::abs(result.eigenvalues.front());
  double abs_max = abs_min;
  for (const double ev : result.eigenvalues) {
    abs_min = std::min(abs_min, std::abs(ev));
    abs_max = std::max(abs_max, std::abs(ev));
  }
  result.rcond = abs_max > 0.0 ? abs_min / abs_max : 0.0;
  return result;
}


/// The sweep tables of a noise basis: per AoA row the weights of the
/// ant_len^2 real degrees of freedom of the per-ToF noise Gram, and per
/// ToF column that Gram, evaluated from the diagonal-sum coefficients.
struct SweepTables {
  std::size_t dof = 0;
  std::vector<double> weights;  ///< n_aoa x dof
  std::vector<double> gram;     ///< n_tof x dof
};

inline SweepTables sweep_tables(ConstCMatrixView noise, ConstCMatrixView ant,
                                ConstCMatrixView sub) {
  const std::size_t n_aoa = ant.rows();
  const std::size_t n_tof = sub.rows();
  const std::size_t ant_len = ant.cols();
  const std::size_t sub_len = sub.cols();
  const std::size_t n_noise = noise.cols();
  SweepTables t;
  t.dof = ant_len * ant_len;
  t.weights.resize(n_aoa * t.dof);
  for (std::size_t ai = 0; ai < n_aoa; ++ai) {
    const cplx* ant_vec = ant.row_ptr(ai);
    double* w = &t.weights[ai * t.dof];
    for (std::size_t a = 0; a < ant_len; ++a) {
      for (std::size_t b = a; b < ant_len; ++b) {
        if (b == a) {
          *w++ = std::norm(ant_vec[a]);
        } else {
          const cplx p = ant_vec[a] * std::conj(ant_vec[b]);
          *w++ = 2.0 * p.real();
          *w++ = -2.0 * p.imag();
        }
      }
    }
  }

  const std::size_t n_terms = 2 * sub_len - 1;
  std::vector<cplx> coef(ant_len * (ant_len + 1) / 2 * n_terms);
  cplx* pair = coef.data();
  for (std::size_t a = 0; a < ant_len; ++a) {
    for (std::size_t b = a; b < ant_len; ++b, pair += n_terms) {
      cplx* c = pair + (sub_len - 1);
      for (std::size_t s = 0; s < sub_len; ++s) {
        const cplx* row_a = noise.row_ptr(a * sub_len + s);
        const std::size_t t_end = b == a ? s + 1 : sub_len;
        for (std::size_t u = 0; u < t_end; ++u) {
          const cplx* row_b = noise.row_ptr(b * sub_len + u);
          cplx acc{};
          for (std::size_t e = 0; e < n_noise; ++e) {
            acc += std::conj(row_a[e]) * row_b[e];
          }
          *(c + s - u) += acc;
        }
      }
    }
  }

  t.gram.resize(n_tof * t.dof);
  for (std::size_t ti = 0; ti < n_tof; ++ti) {
    const cplx* omega_pow = sub.row_ptr(ti);
    double* m = &t.gram[ti * t.dof];
    pair = coef.data();
    for (std::size_t a = 0; a < ant_len; ++a) {
      for (std::size_t b = a; b < ant_len; ++b, pair += n_terms) {
        const cplx* c = pair + (sub_len - 1);
        if (b == a) {
          double acc = 0.0;
          for (std::size_t k = 1; k < sub_len; ++k) {
            acc += c[k].real() * omega_pow[k].real() -
                   c[k].imag() * omega_pow[k].imag();
          }
          *m++ = c[0].real() + 2.0 * acc;
        } else {
          cplx acc = c[0];
          for (std::size_t k = 1; k < sub_len; ++k) {
            acc += c[k] * omega_pow[k] + *(c - k) * std::conj(omega_pow[k]);
          }
          *m++ = acc.real();
          *m++ = acc.imag();
        }
      }
    }
  }
  return t;
}

/// Every cell 1 / max(w_i . m_j, 1e-12) of the tables' AoA x ToF grid.
inline RMatrix sweep_cells(const SweepTables& t) {
  const std::size_t n_aoa = t.weights.size() / t.dof;
  const std::size_t n_tof = t.gram.size() / t.dof;
  RMatrix values(n_aoa, n_tof);
  for (std::size_t i = 0; i < n_aoa; ++i) {
    const double* w = &t.weights[i * t.dof];
    for (std::size_t j = 0; j < n_tof; ++j) {
      const double* m = &t.gram[j * t.dof];
      double denom = 0.0;
      for (std::size_t k = 0; k < t.dof; ++k) denom += w[k] * m[k];
      values(i, j) = 1.0 / std::max(denom, 1e-12);
    }
  }
  return values;
}

}  // namespace spotfi::complex_reference
