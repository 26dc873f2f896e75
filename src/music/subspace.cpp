#include "music/subspace.hpp"

#include <algorithm>

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
/// line 5, plus the dimension caps). dim >= 2 (noise_subspace's
/// precondition), so the noise floor always leaves a signal dimension.
std::size_t select_signal_dims(std::span<const double> eigenvalues,
                               const SubspaceConfig& config) {
  const std::size_t dim = eigenvalues.size();
  const double cut =
      config.relative_threshold * std::max(eigenvalues.back(), 0.0);
  std::size_t n_signal = 0;
  while (n_signal < dim && eigenvalues[dim - 1 - n_signal] > cut) ++n_signal;
  n_signal = std::min({n_signal, config.max_signal_dims, dim - kMinNoiseDims});
  return std::max<std::size_t>(n_signal, 1);
}

}  // namespace

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
    n_signal = select_signal_dims(eig.eigenvalues, config);
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
