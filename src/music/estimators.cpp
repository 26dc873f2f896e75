#include "music/estimators.hpp"

#include <algorithm>
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

/// The per-packet tables of the MUSIC pseudospectrum
/// 1 / max(||E_n^H a||^2, 1e-12) over every steering vector
/// a = ant_i (x) sub_j, antenna-major (the row order of smoothed_csi()):
/// `ant` holds one antenna steering vector per row (AoA row i), `sub`
/// one subcarrier steering vector per row (ToF column j).
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
/// Omega_j^k and its conjugate stands in for Omega_j^-k, and `gram`
/// stores M(j)'s ant_len^2 real degrees of freedom (the diagonal, Re/Im
/// above it). A cell is then one real dot product of that row with AoA
/// row i's matching `weights` (|ant_a|^2, and 2 Re / -2 Im of
/// ant_a conj(ant_b)), whatever the noise dimension. The weights and
/// their per-slot extremes depend on the AoA steering rows alone, so
/// they are built once with the interned AoA table (steering_cache).
/// Cost: O(ant_len^2 * S^2 * D) for the coefficients,
/// O(N_tof * ant_len^2 * S) for the per-column Grams, O(ant_len^2) per
/// cell swept.
struct SweepTables {
  std::size_t ant_len = 0;
  std::size_t dof = 0;                 ///< ant_len^2
  std::span<const double> weights;     ///< n_aoa x dof
  std::span<const double> weight_lo;   ///< dof
  std::span<const double> weight_hi;   ///< dof
  std::span<const double> gram;        ///< n_tof x dof

  [[nodiscard]] std::size_t n_aoa() const { return weights.size() / dof; }
  [[nodiscard]] std::size_t n_tof() const { return gram.size() / dof; }
};

/// Builds the per-packet Grams on `ws` (they live until the caller's
/// enclosing frame closes; the polynomial coefficients are released on
/// return) next to the AoA axis's cached weights.
SweepTables sweep_tables(ConstCMatrixView noise, const SteeringAxisTable& ant,
                         ConstCMatrixView sub, Workspace& ws) {
  const std::size_t n_tof = sub.rows();
  const std::size_t ant_len = ant.len;
  const std::size_t sub_len = sub.cols();
  const std::size_t n_noise = noise.cols();
  const std::size_t dof = ant_len * ant_len;
  SPOTFI_EXPECTS(noise.rows() == ant_len * sub_len,
                 "noise basis length disagrees with the steering tables");
  const std::span<double> gram = ws.take<double>(n_tof * dof);

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
        const double* row_a = re_im(noise.row_ptr(a * sub_len + s));
        const std::size_t t_end = b == a ? s + 1 : sub_len;
        for (std::size_t t = 0; t < t_end; ++t) {
          // sum_e conj(E_n[a S + s, e]) E_n[b S + t, e]
          const double* row_b = re_im(noise.row_ptr(b * sub_len + t));
          double acc_re = 0.0;
          double acc_im = 0.0;
          for (std::size_t e = 0; e < n_noise; ++e) {
            const double xr = row_a[2 * e];
            const double xi = row_a[2 * e + 1];
            const double yr = row_b[2 * e];
            const double yi = row_b[2 * e + 1];
            acc_re += xr * yr + xi * yi;
            acc_im += xr * yi - xi * yr;
          }
          *(c + s - t) += cplx(acc_re, acc_im);
        }
      }
    }
  }

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
          // c[0] + sum_{k>0} c[k] Omega^k + c[-k] conj(Omega^k).
          const double* cp = re_im(c);
          const double* om = re_im(omega_pow);
          double acc_re = cp[0];
          double acc_im = cp[1];
          for (std::size_t k = 1; k < sub_len; ++k) {
            const double pr = cp[2 * k];  // c[k]
            const double pi = cp[2 * k + 1];
            const double nr = *(cp - 2 * k);  // c[-k]
            const double ni = *(cp - 2 * k + 1);
            const double wr = om[2 * k];
            const double wi = om[2 * k + 1];
            acc_re += (pr * wr - pi * wi) + (nr * wr + ni * wi);
            acc_im += (pr * wi + pi * wr) + (ni * wr - nr * wi);
          }
          *m++ = acc_re;
          *m++ = acc_im;
        }
      }
    }
  }
  return {ant_len, dof, ant.weights, ant.weight_lo, ant.weight_hi, gram};
}

/// The one sweep kernel: the cells of ToF column j for AoA rows
/// [i0, i1), 1 / max(w_i . m_j, 1e-12), written to out[(i - i0) * stride].
/// The full grid, the pruned sweep and refinement's on-demand cells all
/// run it, so a cell has the same bits whichever of them computed it.
void sweep_column(const SweepTables& t, std::size_t j, std::size_t i0,
                  std::size_t i1, double* out, std::size_t stride) {
  const double* m = &t.gram[j * t.dof];
  for (std::size_t i = i0; i < i1; ++i, out += stride) {
    const double* w = &t.weights[i * t.dof];
    double denom = 0.0;
    for (std::size_t k = 0; k < t.dof; ++k) denom += w[k] * m[k];
    *out = 1.0 / std::max(denom, 1e-12);
  }
}

/// Every cell of the grid (the value APIs), in bands of 16 AoA rows so
/// the strided writes stay within a few pages.
void sweep_all(const SweepTables& t, RMatrixView values) {
  const std::size_t n_aoa = t.n_aoa();
  SPOTFI_EXPECTS(values.rows() == n_aoa && values.cols() == t.n_tof(),
                 "spectrum grid shape disagrees with the estimator grids");
  constexpr std::size_t kBand = 16;
  for (std::size_t i0 = 0; i0 < n_aoa; i0 += kBand) {
    const std::size_t i1 = std::min(i0 + kBand, n_aoa);
    double* band = values.row_ptr(i0);
    for (std::size_t j = 0; j < t.n_tof(); ++j) {
      sweep_column(t, j, i0, i1, band + j, values.stride());
    }
  }
}

/// U_j for every ToF column: an upper bound on every cell of column j,
/// with no division per cell.
///
/// A cell's denominator is sum_k w_ik m_jk. Over the AoA table each
/// diagonal weight |ant_a|^2 lies in [lo_a, hi_a], and each off-diagonal
/// pair of weights (2 Re p, -2 Im p) has norm at most R_ab (the axis
/// table's weight_lo / weight_hi), so by Cauchy-Schwarz on the pair the
/// denominator is at least
///   B_j = sum_a (m_aa >= 0 ? lo_a : hi_a) m_aa - sum_{a<b} R_ab ||m_ab||.
/// The computed dot product may fall below its exact value by its
/// rounding, at most gamma_dof * S with S = sum_k |w_ik m_jk|; the
/// computed B_j may exceed its exact value by the same order. Both are
/// far below 1e-12 * S_j, where S_j >= S bounds every row of the column,
/// so B_j - 1e-12 S_j is below every computed denominator of column j.
/// U_j = 1 / max(B_j - 1e-12 S_j, 1e-12) is the cells' own expression,
/// and fl(1/x) does not increase with x, so U_j >= every cell. A NaN
/// in M(j) makes U_j NaN; an overflowing one makes S_j infinite and U_j
/// 1e12 or NaN. The sweep skips no such column.
std::span<const double> column_bounds(const SweepTables& t, Workspace& ws) {
  const std::size_t dof = t.dof;
  const std::span<const double> lo = t.weight_lo;
  const std::span<const double> hi = t.weight_hi;
  const std::size_t n_tof = t.n_tof();
  const std::span<double> bound = ws.take<double>(n_tof);
  for (std::size_t ti = 0; ti < n_tof; ++ti) {
    const double* m = &t.gram[ti * dof];
    double b_lo = 0.0;
    double s_abs = 0.0;
    std::size_t k = 0;
    for (std::size_t a = 0; a < t.ant_len; ++a) {
      b_lo += (m[k] >= 0.0 ? lo[k] : hi[k]) * m[k];
      s_abs += hi[k] * std::abs(m[k]);
      ++k;
      for (std::size_t b = a + 1; b < t.ant_len; ++b, k += 2) {
        b_lo -= hi[k] * std::sqrt(m[k] * m[k] + m[k + 1] * m[k + 1]);
        s_abs += hi[k] * (std::abs(m[k]) + std::abs(m[k + 1]));
      }
    }
    bound[ti] = 1.0 / std::max(b_lo - 1e-12 * s_abs, 1e-12);
  }
  return bound;
}

/// stage_spectrum's sweep: the tables, the column bounds, then only the
/// columns whose bound reaches thr = max(0, min(min_relative, 1)) * M,
/// M the largest cell swept so far. The column with the largest bound
/// goes first so M starts high. Cells are >= 0, so a skipped column's
/// cells c have |c| <= U_j < thr <= min(min_relative, 1) * max|grid|:
/// ColumnGrid's condition. NaN bounds, a NaN min_relative and
/// min_relative <= 0 skip nothing.
struct PrunedSweep {
  SweepTables tables;
  SweptSpectrum spectrum;
};

PrunedSweep pruned_sweep(ConstCMatrixView noise, const SteeringAxisTable& ant,
                         ConstCMatrixView sub, double min_relative,
                         Workspace& ws) {
  const SweepTables t = sweep_tables(noise, ant, sub, ws);
  const std::size_t n_aoa = t.n_aoa();
  const std::size_t n_tof = t.n_tof();
  const std::span<const double> bound = column_bounds(t, ws);
  // Zero-filled: every column starts out null.
  const std::span<const double*> col = ws.take<const double*>(n_tof);
  const std::span<std::size_t> swept = ws.take<std::size_t>(n_tof);

  const double scale = std::max(0.0, std::min(min_relative, 1.0));
  double cell_max = 0.0;
  const auto sweep = [&](std::size_t j) {
    double* c = ws.take<double>(n_aoa).data();
    sweep_column(t, j, 0, n_aoa, c, 1);
    for (std::size_t i = 0; i < n_aoa; ++i) cell_max = std::max(cell_max, c[i]);
    col[j] = c;
  };
  std::size_t first = 0;
  for (std::size_t j = 1; j < n_tof; ++j) {
    if (bound[j] > bound[first]) first = j;
  }
  sweep(first);
  std::size_t n_swept = 0;
  for (std::size_t j = 0; j < n_tof; ++j) {
    if (j != first) {
      if (bound[j] < scale * cell_max) continue;
      sweep(j);
    }
    swept[n_swept++] = j;
  }
  return {t, {ColumnGrid{n_aoa, col, swept.first(n_swept)}, bound}};
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
  sweep_all(sweep_tables(sub.noise, *aoa_axis_, steering_view(*tof_axis_),
                         ws),
            sp.values.view());
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

SweptSpectrum JointMusicEstimator::sweep_spectrum(const SubspacesRef& sub,
                                                  Workspace& ws) const {
  return pruned_sweep(sub.noise, *aoa_axis_, steering_view(*tof_axis_),
                      config_.min_relative_peak, ws)
      .spectrum;
}

std::size_t JointMusicEstimator::stage_spectrum(
    const SubspacesRef& sub, Workspace& ws,
    std::span<PathEstimate> out) const {
  SPOTFI_EXPECTS(out.size() >= config_.max_paths,
                 "stage_spectrum output span smaller than max_paths");
  const PrunedSweep sweep =
      pruned_sweep(sub.noise, *aoa_axis_, steering_view(*tof_axis_),
                   config_.min_relative_peak, ws);
  const ColumnGrid& grid = sweep.spectrum.grid;

  // Twice max_paths, so that skipping the AoA edge rows below still
  // leaves max_paths candidates.
  std::span<const GridPeak> peaks = find_peaks_2d(
      grid, tof_wraps_, 2 * config_.max_paths, config_.min_relative_peak, ws);

  // Refinement reads the AoA neighbours in the peak's own (swept) column;
  // a ToF neighbour's column may not have been swept, and then its one
  // cell is computed here by the same kernel.
  const auto value = [&](std::size_t i, std::size_t j) {
    if (grid.col[j] != nullptr) return grid.col[j][i];
    double cell = 0.0;
    sweep_column(sweep.tables, j, i, i + 1, &cell, 1);
    return cell;
  };
  const RVector& aoa_grid = aoa_axis_->grid;
  const RVector& tof_grid = tof_axis_->grid;
  const std::size_t n_tof = tof_grid.size();
  const std::size_t last = aoa_grid.size() - 1;
  std::size_t n_out = 0;
  for (const GridPeak& pk : peaks) {
    // Skip edge rows in order, cap at max_paths.
    if (pk.i == 0 || pk.i == last) continue;
    if (n_out == config_.max_paths) break;
    PathEstimate est;
    est.power = pk.value;
    double di = 0.0;
    double dj = 0.0;
    if (config_.refine_peaks) {
      if (pk.i > 0 && pk.i + 1 < aoa_grid.size()) {
        di = parabolic_offset(value(pk.i - 1, pk.j), pk.value,
                              value(pk.i + 1, pk.j));
      }
      const std::size_t jm =
          pk.j > 0 ? pk.j - 1 : (tof_wraps_ ? n_tof - 1 : pk.j);
      const std::size_t jp =
          pk.j + 1 < n_tof ? pk.j + 1 : (tof_wraps_ ? 0 : pk.j);
      if (jm != pk.j && jp != pk.j) {
        dj = parabolic_offset(value(pk.i, jm), pk.value, value(pk.i, jp));
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
  aoa_axis_ = SteeringTableCache::get(
      SteeringTableCache::Axis::kAoa, config_.aoa_min_rad, config_.aoa_max_rad,
      config_.aoa_step_rad, link_.n_antennas, link_);
}

AoaSpectrum MusicAoaEstimator::spectrum(const CMatrix& csi) const {
  SPOTFI_EXPECTS(csi.rows() == link_.n_antennas &&
                     csi.cols() == link_.n_subcarriers,
                 "CSI shape disagrees with the link config");
  // The full array with every subcarrier as one snapshot (Sec. 3.1.1):
  // the CSI itself is the measurement matrix.
  Workspace& ws = thread_workspace();
  Workspace::Frame frame(ws);
  SubspaceConfig sub_cfg = config_.subspace;
  sub_cfg.max_signal_dims =
      std::min(sub_cfg.max_signal_dims, link_.n_antennas - 1);
  const SubspacesRef sub = noise_subspace(ConstCMatrixView(csi), sub_cfg, ws);

  AoaSpectrum sp;
  sp.aoa_grid_rad = aoa_axis_->grid;
  sp.values.resize(sp.aoa_grid_rad.size());
  // The antenna-only array is the joint sweep's one-column case: one
  // length-1 subcarrier steering vector.
  const cplx one{1.0, 0.0};
  sweep_all(sweep_tables(sub.noise, *aoa_axis_, ConstCMatrixView(&one, 1, 1),
                         ws),
            RMatrixView(sp.values.data(), sp.values.size(), 1));
  return sp;
}

std::vector<PathEstimate> MusicAoaEstimator::estimate(
    const CMatrix& csi) const {
  const AoaSpectrum sp = spectrum(csi);
  auto peaks = find_peaks_1d(sp.values, 2 * config_.max_paths,
                             config_.min_relative_peak);
  const std::size_t last = sp.aoa_grid_rad.size() - 1;
  std::erase_if(peaks,
                [&](const GridPeak& p) { return p.i == 0 || p.i == last; });
  if (peaks.size() > config_.max_paths) peaks.resize(config_.max_paths);
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
