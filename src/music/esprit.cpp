#include "music/esprit.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eig_general.hpp"
#include "music/steering.hpp"

namespace spotfi {
namespace {

/// Estimates whose |sin(theta)| exceeds 1 - this margin are dropped:
/// shift eigenvalues slightly off the unit circle map outside the
/// physical AoA range.
constexpr double kEndfireMargin = 1e-3;

/// Least-squares solution of A X = B for skinny complex A via the normal
/// equations (columns of X solved independently). A rank-deficient normal
/// matrix — coherent paths collapsing the signal subspace — goes through
/// the regularized solve's jitter ladder instead of failing outright. The
/// result is checked out of `ws` (caller's frame); all scratch is
/// released before returning.
CMatrixView complex_lstsq(ConstCMatrixView a, ConstCMatrixView b,
                          Workspace& ws) {
  SPOTFI_EXPECTS(a.rows() == b.rows() && a.rows() >= a.cols(),
                 "complex_lstsq shape mismatch");
  const CMatrixView x = workspace_matrix<cplx>(ws, a.cols(), b.cols());
  Workspace::Frame scratch(ws);
  const CMatrixView at = workspace_matrix<cplx>(ws, a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) at(j, i) = std::conj(a(i, j));
  }
  const CMatrixView ata = workspace_matrix<cplx>(ws, a.cols(), a.cols());
  matmul_into<cplx>(at, a, ata);
  const CMatrixView atb = workspace_matrix<cplx>(ws, a.cols(), b.cols());
  matmul_into<cplx>(at, b, atb);
  const std::span<cplx> rhs = ws.take<cplx>(a.cols());
  const std::span<cplx> sol = ws.take<cplx>(a.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < a.cols(); ++i) rhs[i] = atb(i, j);
    solve_complex_regularized_into(ConstCMatrixView(ata), rhs, sol, ws);
    for (std::size_t i = 0; i < a.cols(); ++i) x(i, j) = sol[i];
  }
  return x;
}

/// Rows of `es` whose subarray index satisfies a predicate; the selection
/// is checked out of `ws`.
CMatrixView select_rows(ConstCMatrixView es, const SmoothingConfig& cfg,
                        bool by_subcarrier, bool upper, Workspace& ws) {
  const std::size_t sub_len = cfg.sub_len;
  const std::size_t ant_len = cfg.ant_len;
  const std::size_t n_rows = by_subcarrier ? ant_len * (sub_len - 1)
                                           : (ant_len - 1) * sub_len;
  const CMatrixView out = workspace_matrix<cplx>(ws, n_rows, es.cols());
  std::size_t r = 0;
  for (std::size_t a = 0; a < ant_len; ++a) {
    for (std::size_t s = 0; s < sub_len; ++s) {
      bool keep;
      if (by_subcarrier) {
        keep = upper ? (s >= 1) : (s + 1 < sub_len);
      } else {
        keep = upper ? (a >= 1) : (a + 1 < ant_len);
      }
      if (!keep) continue;
      const cplx* src = es.row_ptr(a * sub_len + s);
      std::copy(src, src + es.cols(), out.row_ptr(r));
      ++r;
    }
  }
  SPOTFI_ASSERT(r == n_rows, "row selection count mismatch");
  return out;
}

}  // namespace

JointEspritEstimator::JointEspritEstimator(LinkConfig link,
                                           EspritConfig config)
    : link_(link), config_(config) {
  SPOTFI_EXPECTS(config_.smoothing.sub_len >= 2 &&
                     config_.smoothing.ant_len >= 2,
                 "ESPRIT needs at least a 2x2 subarray for both shifts");
  SPOTFI_EXPECTS(config_.smoothing.ant_len <= link_.n_antennas &&
                     config_.smoothing.sub_len <= link_.n_subcarriers,
                 "smoothing subarray exceeds the link dimensions");
}

std::vector<PathEstimate> JointEspritEstimator::estimate(
    const CMatrix& csi) const {
  Workspace& ws = thread_workspace();
  Workspace::Frame frame(ws);
  const std::span<PathEstimate> buf = ws.take<PathEstimate>(config_.max_paths);
  const std::size_t n = estimate_into(ConstCMatrixView(csi), ws, buf);
  return {buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n)};
}

std::size_t JointEspritEstimator::estimate_into(
    ConstCMatrixView csi, Workspace& ws, std::span<PathEstimate> out) const {
  SPOTFI_EXPECTS(csi.rows() == link_.n_antennas &&
                     csi.cols() == link_.n_subcarriers,
                 "CSI shape disagrees with the link config");
  SPOTFI_EXPECTS(out.size() >= config_.max_paths,
                 "estimate_into output span smaller than max_paths");
  Workspace::Frame frame(ws);
  const CMatrixView x = smoothed_csi(csi, ws, config_.smoothing);

  // Signal subspace: eigenvectors of the top-L eigenvalues.
  SubspaceConfig sub_cfg = config_.subspace;
  sub_cfg.max_signal_dims =
      std::min(sub_cfg.max_signal_dims, config_.max_paths);
  const SubspacesRef sub =
      noise_subspace(ConstCMatrixView(x), sub_cfg, ws);
  const std::size_t dim = x.rows();
  const std::size_t n_signal = sub.n_signal;

  // Shift-invariance operators.
  const ConstCMatrixView es = sub.signal;
  const CMatrixView es_sub_lo =
      select_rows(es, config_.smoothing, true, false, ws);
  const CMatrixView es_sub_hi =
      select_rows(es, config_.smoothing, true, true, ws);
  const CMatrixView es_ant_lo =
      select_rows(es, config_.smoothing, false, false, ws);
  const CMatrixView es_ant_hi =
      select_rows(es, config_.smoothing, false, true, ws);

  CMatrixView f_tau, f_phi;
  try {
    f_tau = complex_lstsq(es_sub_lo, es_sub_hi, ws);
    f_phi = complex_lstsq(es_ant_lo, es_ant_hi, ws);
  } catch (const NumericalError&) {
    return 0;  // degenerate subspace: no estimates
  }

  // Joint diagonalization: eigenvectors of F_tau diagonalize F_phi too
  // (in the noiseless case the operators commute). eig_general never
  // throws for convergence; a stalled iteration (near-defective operator
  // from coherent paths) surfaces through the `converged` flag instead.
  const GeneralEigRef te = eig_general(ConstCMatrixView(f_tau), ws);
  if (!te.converged) return 0;
  // Phi eigenvalues paired through the same basis: T^-1 F_phi T diagonal.
  const CMatrixView phi_in_basis =
      workspace_matrix<cplx>(ws, n_signal, n_signal);
  try {
    // Solve T * Y = F_phi * T for Y, then take the diagonal. A defective
    // eigenvector basis is near-singular; lean on the jitter ladder.
    const CMatrixView rhs = workspace_matrix<cplx>(ws, n_signal, n_signal);
    matmul_into<cplx>(ConstCMatrixView(f_phi),
                      ConstCMatrixView(te.eigenvectors), rhs);
    const std::span<cplx> col = ws.take<cplx>(n_signal);
    const std::span<cplx> sol = ws.take<cplx>(n_signal);
    for (std::size_t j = 0; j < n_signal; ++j) {
      for (std::size_t i = 0; i < n_signal; ++i) col[i] = rhs(i, j);
      solve_complex_regularized_into(ConstCMatrixView(te.eigenvectors), col,
                                     sol, ws);
      for (std::size_t i = 0; i < n_signal; ++i) phi_in_basis(i, j) = sol[i];
    }
  } catch (const NumericalError&) {
    return 0;
  }

  const std::span<PathEstimate> estimates = ws.take<PathEstimate>(n_signal);
  std::size_t n_est = 0;
  const double two_pi_fd = 2.0 * kPi * link_.subcarrier_spacing_hz;
  const double sin_scale = link_.wavelength() /
                           (2.0 * kPi * link_.antenna_spacing_m);
  for (std::size_t k = 0; k < n_signal; ++k) {
    const cplx omega = te.eigenvalues[k];
    const cplx phi = phi_in_basis(k, k);
    if (std::abs(omega) < 1e-6) continue;
    PathEstimate est;
    est.tof_s = -std::arg(omega) / two_pi_fd;
    const double sin_theta = -std::arg(phi) * sin_scale;
    if (std::abs(sin_theta) > 1.0 - kEndfireMargin) continue;
    est.aoa_rad = std::asin(sin_theta);
    estimates[n_est++] = est;
  }

  // Path powers: least-squares fit of the joint steering matrix to the
  // smoothed measurement.
  if (n_est > 0) {
    const CMatrixView steering = workspace_matrix<cplx>(ws, dim, n_est);
    const std::span<cplx> a_col = ws.take<cplx>(dim);
    for (std::size_t k = 0; k < n_est; ++k) {
      joint_steering_into(estimates[k].aoa_rad, estimates[k].tof_s,
                          config_.smoothing.ant_len, config_.smoothing.sub_len,
                          link_, a_col);
      for (std::size_t i = 0; i < dim; ++i) steering(i, k) = a_col[i];
    }
    try {
      const CMatrixView gains =
          complex_lstsq(ConstCMatrixView(steering), ConstCMatrixView(x), ws);
      for (std::size_t k = 0; k < n_est; ++k) {
        double p = 0.0;
        for (std::size_t j = 0; j < gains.cols(); ++j) {
          p += std::norm(gains(k, j));
        }
        estimates[k].power = p / static_cast<double>(gains.cols());
      }
    } catch (const NumericalError&) {
      // Nearly collinear steering vectors: keep unit powers.
      for (std::size_t k = 0; k < n_est; ++k) estimates[k].power = 1.0;
    }
  }
  std::sort(estimates.begin(),
            estimates.begin() + static_cast<std::ptrdiff_t>(n_est),
            [](const PathEstimate& a, const PathEstimate& b) {
              return a.power > b.power;
            });
  const std::size_t n_out = std::min(n_est, config_.max_paths);
  std::copy(estimates.begin(),
            estimates.begin() + static_cast<std::ptrdiff_t>(n_out),
            out.begin());
  return n_out;
}

}  // namespace spotfi
