#include "music/estimators.hpp"

#include <cmath>

#include "music/steering.hpp"
#include "music/steering_cache.hpp"

namespace spotfi {

JointMusicEstimator::JointMusicEstimator(LinkConfig link,
                                         JointMusicConfig config)
    : link_(link), config_(config) {
  SPOTFI_EXPECTS(config_.smoothing.ant_len <= link_.n_antennas &&
                     config_.smoothing.sub_len <= link_.n_subcarriers,
                 "smoothing subarray exceeds the link dimensions");
  const double period = tof_period(link_);
  if (std::isnan(config_.tof_min_s) || std::isnan(config_.tof_max_s)) {
    // Full unambiguous range; leave one step gap at the top so the wrap
    // point is not sampled twice.
    tof_min_s_ = -period / 2.0;
    tof_max_s_ = period / 2.0 - config_.tof_step_s;
    tof_wraps_ = true;
  } else {
    SPOTFI_EXPECTS(config_.tof_max_s > config_.tof_min_s,
                   "invalid ToF grid range");
    tof_min_s_ = config_.tof_min_s;
    tof_max_s_ = config_.tof_max_s;
    tof_wraps_ = (tof_max_s_ - tof_min_s_) >= period - 2.0 * config_.tof_step_s;
  }
  aoa_axis_ = SteeringTableCache::get(
      SteeringTableCache::Axis::kAoa, config_.aoa_min_rad, config_.aoa_max_rad,
      config_.aoa_step_rad, config_.smoothing.ant_len, link_);
  tof_axis_ = SteeringTableCache::get(SteeringTableCache::Axis::kTof,
                                      tof_min_s_, tof_max_s_,
                                      config_.tof_step_s,
                                      config_.smoothing.sub_len, link_);
}

namespace {

/// One axis table as a grid.size() x len matrix, one steering vector per
/// row.
ConstCMatrixView steering_view(const SteeringAxisTable& axis) {
  return {axis.steering.data(), axis.grid.size(), axis.len};
}

/// The MUSIC pseudospectrum 1 / max(||E_n^H a||^2, 1e-12) over every
/// steering vector a = ant_i (x) sub_j, antenna-major (the row order of
/// smoothed_csi()); `ant` holds one antenna steering vector per row,
/// `sub` one subcarrier steering vector per row. values(i, j) is the
/// spectrum at (ant_i, sub_j).
///
/// The denominator at (i, j) is the quadratic form
///   ||E_n^H a||^2 = ant_i^T M(j) conj(ant_i)
/// in the ant_len x ant_len Hermitian noise Gram
///   M_ab(j) = sum_{s,s'} sum_e conj(E_n[a*S+s, e]) E_n[b*S+s', e]
///             * sub_j[s] conj(sub_j[s']).
/// sub_j = [1, Omega_j, ..., Omega_j^(S-1)] with |Omega_j| = 1 (Eq. 6),
/// so sub_j[s] conj(sub_j[s']) = Omega_j^(s-s') and each entry is a
/// trigonometric polynomial with 2S - 1 terms,
///   M_ab(j) = sum_{k=-(S-1)}^{S-1} c_ab[k] Omega_j^k,
/// whose coefficients c_ab[k] are the k-th diagonal sums of the noise
/// projector's (a, b) block. They are built once per packet for a <= b;
/// c_aa[-k] = conj(c_aa[k]), so a diagonal block needs only s' <= s.
/// Each ToF column evaluates them on its steering row, where sub_j[k] is
/// Omega_j^k and its conjugate stands in for Omega_j^-k, and stores
/// M(j)'s ant_len^2 real degrees of freedom (the diagonal, Re/Im above
/// it). Each grid point is then one real dot product with the matching
/// weights of ant_i (|ant_a|^2, and 2 Re / -2 Im of ant_a conj(ant_b)),
/// whatever the noise dimension.
/// Cost: O(ant_len^2 * S^2 * D) for the coefficients,
/// O(N_tof * ant_len^2 * S) for the per-column Grams, O(G * ant_len^2)
/// for the sweep.
void spectrum_values(ConstCMatrixView noise, ConstCMatrixView ant,
                     ConstCMatrixView sub, Workspace& ws, RMatrixView values) {
  const std::size_t n_aoa = ant.rows();
  const std::size_t n_tof = sub.rows();
  const std::size_t ant_len = ant.cols();
  const std::size_t sub_len = sub.cols();
  const std::size_t n_noise = noise.cols();
  const std::size_t dof = ant_len * ant_len;
  SPOTFI_EXPECTS(values.rows() == n_aoa && values.cols() == n_tof,
                 "spectrum grid shape disagrees with the estimator grids");
  SPOTFI_EXPECTS(noise.rows() == ant_len * sub_len,
                 "noise basis length disagrees with the steering tables");

  Workspace::Frame frame(ws);
  // c_ab[k] for each pair a <= b, pair-major: a pair's 2S - 1 terms run
  // from k = -(S-1) up, so c_ab[k] sits at c = pair + S - 1 as c[k] for
  // k >= 0 and *(c - |k|) for k < 0.
  const std::size_t n_terms = 2 * sub_len - 1;
  const std::span<cplx> coef =
      ws.take<cplx>(ant_len * (ant_len + 1) / 2 * n_terms);  // zero-filled
  cplx* pair = coef.data();
  for (std::size_t a = 0; a < ant_len; ++a) {
    for (std::size_t b = a; b < ant_len; ++b, pair += n_terms) {
      cplx* c = pair + (sub_len - 1);
      for (std::size_t s = 0; s < sub_len; ++s) {
        const cplx* row_a = noise.row_ptr(a * sub_len + s);
        const std::size_t t_end = b == a ? s + 1 : sub_len;
        for (std::size_t t = 0; t < t_end; ++t) {
          const cplx* row_b = noise.row_ptr(b * sub_len + t);
          cplx acc{};
          for (std::size_t e = 0; e < n_noise; ++e) {
            acc += std::conj(row_a[e]) * row_b[e];
          }
          *(c + s - t) += acc;
        }
      }
    }
  }

  const std::span<double> gram = ws.take<double>(n_tof * dof);
  for (std::size_t ti = 0; ti < n_tof; ++ti) {
    const cplx* omega_pow = sub.row_ptr(ti);
    double* m = &gram[ti * dof];
    pair = coef.data();
    for (std::size_t a = 0; a < ant_len; ++a) {
      for (std::size_t b = a; b < ant_len; ++b, pair += n_terms) {
        const cplx* c = pair + (sub_len - 1);
        if (b == a) {
          // Real: c[0] + 2 Re sum_{k>0} c[k] Omega^k.
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

  const std::span<double> weights = ws.take<double>(dof);
  for (std::size_t ai = 0; ai < n_aoa; ++ai) {
    const cplx* ant_vec = ant.row_ptr(ai);
    double* w = weights.data();
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
    double* row = values.row_ptr(ai);
    for (std::size_t ti = 0; ti < n_tof; ++ti) {
      const double* m = &gram[ti * dof];
      double denom = 0.0;
      for (std::size_t k = 0; k < dof; ++k) denom += weights[k] * m[k];
      row[ti] = 1.0 / std::max(denom, 1e-12);
    }
  }
}

}  // namespace

AoaTofSpectrum JointMusicEstimator::spectrum(const CMatrix& csi) const {
  Workspace& ws = thread_workspace();
  Workspace::Frame frame(ws);
  const SubspacesRef sub = stage_subspace(ConstCMatrixView(csi), ws);
  AoaTofSpectrum sp;
  sp.aoa_grid_rad = aoa_axis_->grid;
  sp.tof_grid_s = tof_axis_->grid;
  sp.values = RMatrix(sp.aoa_grid_rad.size(), sp.tof_grid_s.size());
  spectrum_values(sub.noise, steering_view(*aoa_axis_),
                  steering_view(*tof_axis_), ws, sp.values.view());
  return sp;
}

SubspacesRef JointMusicEstimator::stage_subspace(ConstCMatrixView csi,
                                                 Workspace& ws) const {
  SPOTFI_EXPECTS(csi.rows() == link_.n_antennas &&
                     csi.cols() == link_.n_subcarriers,
                 "CSI shape disagrees with the link config");
  const CMatrixView x = smoothed_csi(csi, ws, config_.smoothing);
  return noise_subspace(ConstCMatrixView(x), config_.subspace, ws);
}

std::size_t JointMusicEstimator::stage_spectrum(
    const SubspacesRef& sub, Workspace& ws,
    std::span<PathEstimate> out) const {
  SPOTFI_EXPECTS(out.size() >= config_.max_paths,
                 "stage_spectrum output span smaller than max_paths");
  const RMatrixView values = workspace_matrix<double>(
      ws, aoa_axis_->grid.size(), tof_axis_->grid.size());
  spectrum_values(sub.noise, steering_view(*aoa_axis_),
                  steering_view(*tof_axis_), ws, values);

  std::span<const GridPeak> peaks = find_peaks_2d(
      ConstRMatrixView(values), tof_wraps_,
      config_.max_paths + (config_.exclude_aoa_edges ? config_.max_paths : 0),
      config_.min_relative_peak, ws);

  const RVector& aoa_grid = aoa_axis_->grid;
  const RVector& tof_grid = tof_axis_->grid;
  const std::size_t n_tof = tof_grid.size();
  const std::size_t last = aoa_grid.size() - 1;
  std::size_t n_out = 0;
  for (const GridPeak& pk : peaks) {
    // Same surviving set as the value path's erase_if + resize: skip edge
    // rows in order, cap at max_paths.
    if (config_.exclude_aoa_edges && (pk.i == 0 || pk.i == last)) continue;
    if (n_out == config_.max_paths) break;
    PathEstimate est;
    est.power = pk.value;
    double di = 0.0;
    double dj = 0.0;
    if (config_.refine_peaks) {
      if (pk.i > 0 && pk.i + 1 < aoa_grid.size()) {
        di = parabolic_offset(values(pk.i - 1, pk.j), values(pk.i, pk.j),
                              values(pk.i + 1, pk.j));
      }
      const std::size_t jm =
          pk.j > 0 ? pk.j - 1 : (tof_wraps_ ? n_tof - 1 : pk.j);
      const std::size_t jp =
          pk.j + 1 < n_tof ? pk.j + 1 : (tof_wraps_ ? 0 : pk.j);
      if (jm != pk.j && jp != pk.j) {
        dj = parabolic_offset(values(pk.i, jm), values(pk.i, pk.j),
                              values(pk.i, jp));
      }
    }
    est.aoa_rad = aoa_grid[pk.i] + di * config_.aoa_step_rad;
    est.tof_s = tof_grid[pk.j] + dj * config_.tof_step_s;
    out[n_out++] = est;
  }
  return n_out;
}

std::vector<PathEstimate> JointMusicEstimator::estimate(
    const CMatrix& csi) const {
  Workspace& ws = thread_workspace();
  Workspace::Frame frame(ws);
  const std::span<PathEstimate> buf = ws.take<PathEstimate>(config_.max_paths);
  const SubspacesRef sub = stage_subspace(ConstCMatrixView(csi), ws);
  const std::size_t n = stage_spectrum(sub, ws, buf);
  return {buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n)};
}

MusicAoaEstimator::MusicAoaEstimator(LinkConfig link, MusicAoaConfig config)
    : link_(link), config_(config) {
  SPOTFI_EXPECTS(config_.smoothing_ant_len <= link_.n_antennas,
                 "smoothing subarray exceeds the antenna count");
  ant_len_ = config_.smoothing_ant_len == 0 ? link_.n_antennas
                                            : config_.smoothing_ant_len;
  aoa_axis_ = SteeringTableCache::get(
      SteeringTableCache::Axis::kAoa, config_.aoa_min_rad, config_.aoa_max_rad,
      config_.aoa_step_rad, ant_len_, link_);
}

AoaSpectrum MusicAoaEstimator::spectrum(const CMatrix& csi) const {
  SPOTFI_EXPECTS(csi.rows() == link_.n_antennas &&
                     csi.cols() == link_.n_subcarriers,
                 "CSI shape disagrees with the link config");
  const std::size_t ant_len = ant_len_;
  // Forward spatial smoothing (Sec. 3.1.1) is the joint smoothing with a
  // one-subcarrier subarray: every subcarrier of every antenna subarray
  // is one snapshot. With the full array (ant_len = M) it is the CSI.
  Workspace& ws = thread_workspace();
  Workspace::Frame frame(ws);
  const CMatrixView x =
      smoothed_csi(ConstCMatrixView(csi), ws,
                   SmoothingConfig{.sub_len = 1, .ant_len = ant_len});
  SubspaceConfig sub_cfg = config_.subspace;
  sub_cfg.max_signal_dims = std::min(sub_cfg.max_signal_dims, ant_len - 1);
  const SubspacesRef sub = noise_subspace(ConstCMatrixView(x), sub_cfg, ws);

  AoaSpectrum sp;
  sp.aoa_grid_rad = aoa_axis_->grid;
  sp.values.resize(sp.aoa_grid_rad.size());
  // The antenna-only array is the joint sweep's one-column case: one
  // length-1 subcarrier steering vector.
  const cplx one{1.0, 0.0};
  spectrum_values(sub.noise, steering_view(*aoa_axis_),
                  ConstCMatrixView(&one, 1, 1), ws,
                  RMatrixView(sp.values.data(), sp.values.size(), 1));
  return sp;
}

std::vector<PathEstimate> MusicAoaEstimator::estimate(
    const CMatrix& csi) const {
  const AoaSpectrum sp = spectrum(csi);
  auto peaks =
      find_peaks_1d(sp.values,
                    config_.max_paths +
                        (config_.exclude_aoa_edges ? config_.max_paths : 0),
                    config_.min_relative_peak);
  if (config_.exclude_aoa_edges) {
    const std::size_t last = sp.aoa_grid_rad.size() - 1;
    std::erase_if(peaks, [&](const GridPeak& p) {
      return p.i == 0 || p.i == last;
    });
    if (peaks.size() > config_.max_paths) peaks.resize(config_.max_paths);
  }
  std::vector<PathEstimate> estimates;
  estimates.reserve(peaks.size());
  for (const auto& pk : peaks) {
    PathEstimate est;
    est.power = pk.value;
    double di = 0.0;
    if (config_.refine_peaks && pk.i > 0 &&
        pk.i + 1 < sp.aoa_grid_rad.size()) {
      di = parabolic_offset(sp.values[pk.i - 1], sp.values[pk.i],
                            sp.values[pk.i + 1]);
    }
    est.aoa_rad = sp.aoa_grid_rad[pk.i] + di * config_.aoa_step_rad;
    estimates.push_back(est);
  }
  return estimates;
}

}  // namespace spotfi
