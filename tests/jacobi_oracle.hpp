// Textbook cyclic complex Jacobi eigensolver: the test oracle that the
// production eigh (Householder tridiagonalization + implicit QL) is held
// against.
//
// It shares no code with the kernel under test. Every rotation first
// turns the pivot a(p, q) real with a phase change, then zeroes it with
// a real Jacobi rotation, and sweeps repeat until the off-diagonal mass
// is below eps^2 ||A||_F^2. Cubic per sweep and a handful of sweeps: far
// too slow to serve, and simple enough to trust.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

#include "linalg/matrix.hpp"

namespace spotfi::oracle {

struct JacobiEig {
  RVector eigenvalues;   ///< ascending
  CMatrix eigenvectors;  ///< column k belongs to eigenvalues[k]
  int sweeps = 0;
  bool converged = false;
};

/// Eigendecomposition of a Hermitian `a` (symmetrized first).
inline JacobiEig jacobi_eigh(const CMatrix& input) {
  const std::size_t n = input.rows();
  CMatrix a(n, n);
  double frob2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = 0.5 * (input(i, j) + std::conj(input(j, i)));
      frob2 += std::norm(a(i, j));
    }
    a(i, i) = a(i, i).real();
  }
  CMatrix v = CMatrix::identity(n);
  const double eps = std::numeric_limits<double>::epsilon();
  constexpr int kMaxSweeps = 100;

  JacobiEig out;
  for (; out.sweeps < kMaxSweeps; ++out.sweeps) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q) off += std::norm(a(p, q));
    if (off <= eps * eps * frob2) {
      out.converged = true;
      break;
    }
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double abs_apq = std::abs(a(p, q));
        if (abs_apq <= 1e-300) {
          a(p, q) = a(q, p) = cplx{};
          continue;
        }
        // Phase change on index q: a(p, q) becomes |a(p, q)|.
        const cplx cphase = std::conj(a(p, q) / abs_apq);
        for (std::size_t k = 0; k < n; ++k) {
          if (k == q) continue;
          a(k, q) *= cphase;
          a(q, k) = std::conj(a(k, q));
        }
        for (std::size_t k = 0; k < n; ++k) v(k, q) *= cphase;

        // Real rotation annihilating the (now real) pivot.
        const double app = a(p, p).real();
        const double aqq = a(q, q).real();
        const double theta = (aqq - app) / (2.0 * abs_apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
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
        a(p, p) = app - t * abs_apq;
        a(q, q) = aqq + t * abs_apq;
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

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return a(i, i).real() < a(j, j).real();
  });
  out.eigenvalues.resize(n);
  out.eigenvectors = CMatrix(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    out.eigenvalues[k] = a(order[k], order[k]).real();
    for (std::size_t i = 0; i < n; ++i)
      out.eigenvectors(i, k) = v(i, order[k]);
  }
  return out;
}

}  // namespace spotfi::oracle
