#include "music/subspace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/hermitian_eig.hpp"

namespace spotfi {
namespace {

/// eigh never throws for convergence; the subspace split is where a
/// partial decomposition becomes unusable (noise/signal separation is
/// meaningless without orthonormal eigenvectors), so the throw that the
/// MUSIC pipeline's fallback ladder expects is re-raised here.
void require_converged(bool converged, double max_residual) {
  if (!converged) {
    throw NumericalError(
        "noise_subspace: covariance eigendecomposition did not converge "
        "(eigenpair residual " +
        std::to_string(max_residual) + ")");
  }
}

/// Model-order selection on ascending eigenvalues (Algorithm 2,
/// line 5, plus the MDL/AIC information criteria and the dimension caps).
std::size_t select_signal_dims(std::span<const double> eigenvalues,
                               std::size_t n_snapshots,
                               const SubspaceConfig& config) {
  const std::size_t dim = eigenvalues.size();
  std::size_t n_signal = 0;
  if (config.order_method == OrderMethod::kThreshold) {
    const double lambda_max = eigenvalues.back();
    const double cut = config.relative_threshold * std::max(lambda_max, 0.0);
    for (std::size_t k = dim; k-- > 0;) {
      if (eigenvalues[k] > cut) ++n_signal;
      else break;
    }
  } else {
    n_signal =
        estimate_model_order(eigenvalues, n_snapshots, config.order_method);
  }
  n_signal = std::min(n_signal, config.max_signal_dims);
  const std::size_t max_signal =
      dim > config.min_noise_dims ? dim - config.min_noise_dims : 0;
  n_signal = std::min(n_signal, max_signal);
  n_signal = std::max<std::size_t>(n_signal, 1);
  return n_signal;
}

}  // namespace

std::size_t estimate_model_order(std::span<const double> eigenvalues,
                                 std::size_t n_snapshots,
                                 OrderMethod method) {
  SPOTFI_EXPECTS(eigenvalues.size() >= 2, "need at least two eigenvalues");
  SPOTFI_EXPECTS(n_snapshots >= 1, "need at least one snapshot");
  SPOTFI_EXPECTS(method != OrderMethod::kThreshold,
                 "estimate_model_order implements MDL/AIC only");
  const std::size_t m = eigenvalues.size();
  const double n = static_cast<double>(n_snapshots);

  double best_score = std::numeric_limits<double>::max();
  std::size_t best_k = 0;
  for (std::size_t k = 0; k < m; ++k) {
    // Smallest (m - k) eigenvalues — the candidate noise set. Eigenvalues
    // are ascending, so these are the leading entries.
    const auto p = static_cast<double>(m - k);
    double log_geo = 0.0;
    double arith = 0.0;
    for (std::size_t i = 0; i < m - k; ++i) {
      const double ev = std::max(eigenvalues[i], 1e-300);
      log_geo += std::log(ev);
      arith += ev;
    }
    log_geo /= p;
    arith /= p;
    const double log_ratio = log_geo - std::log(std::max(arith, 1e-300));
    const double fit = -n * p * log_ratio;
    const double dof = static_cast<double>(k) * (2.0 * m - k);
    const double penalty = method == OrderMethod::kMdl
                               ? 0.5 * dof * std::log(n)
                               : dof;  // AIC
    const double score = fit + penalty;
    if (score < best_score) {
      best_score = score;
      best_k = k;
    }
  }
  return best_k;
}

SubspacesRef noise_subspace(ConstCMatrixView measurement,
                            const SubspaceConfig& config, Workspace& ws) {
  SPOTFI_EXPECTS(measurement.rows() >= 2, "measurement matrix too small");
  SPOTFI_EXPECTS(config.relative_threshold > 0.0 &&
                     config.relative_threshold < 1.0,
                 "relative_threshold must be in (0, 1)");
  const std::size_t dim = measurement.rows();

  // Results first (they outlive the scratch frame): the eigenvalue copy
  // and a dim x dim slab holding every eigenvector.
  const std::span<double> evals_out = ws.take<double>(dim);
  const CMatrixView basis = workspace_matrix<cplx>(ws, dim, dim);

  std::size_t n_signal = 0;
  {
    Workspace::Frame frame(ws);
    const CMatrixView g = workspace_matrix<cplx>(ws, dim, dim);
    gram_into<cplx>(measurement, g);
    const EighResult eig = eigh(ConstCMatrixView(g), ws);
    require_converged(eig.converged, eig.max_residual);
    n_signal = select_signal_dims(eig.eigenvalues, measurement.cols(), config);
    std::copy(eig.eigenvalues.begin(), eig.eigenvalues.end(),
              evals_out.begin());
    for (std::size_t i = 0; i < dim; ++i) {
      const cplx* src = eig.eigenvectors.row_ptr(i);
      std::copy(src, src + dim, basis.row_ptr(i));
    }
  }

  // Eigenvalues are ascending, so the leading dim - n_signal columns are
  // the noise basis and the trailing n_signal the signal basis.
  const std::size_t n_noise = dim - n_signal;
  SubspacesRef s;
  s.noise = basis.block(0, 0, dim, n_noise);
  s.signal = basis.block(0, n_noise, dim, n_signal);
  s.n_signal = n_signal;
  s.eigenvalues = evals_out;
  return s;
}

}  // namespace spotfi
