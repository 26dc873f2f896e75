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

void JointMusicEstimator::spectrum_values(ConstCMatrixView noise,
                                          Workspace& ws,
                                          RMatrixView values) const {
  const std::size_t n_aoa = aoa_axis_->grid.size();
  const std::size_t n_tof = tof_axis_->grid.size();
  const std::size_t n_noise = noise.cols();
  const std::size_t ant_len = config_.smoothing.ant_len;
  const std::size_t sub_len = config_.smoothing.sub_len;
  SPOTFI_EXPECTS(values.rows() == n_aoa && values.cols() == n_tof,
                 "spectrum grid shape disagrees with the estimator grids");

  // The joint steering vector factors as ant(theta) (x) sub(tau) with
  // antenna-major rows, so for noise eigenvector e:
  //   e^H a(theta,tau) = sum_a ant_a * (sum_s conj(e[a*sub_len+s]) sub_s)
  // Precompute the inner parenthesis g[tau][e][a] once per subspace
  // (the steering tables themselves are cached at construction), then
  // the grid sweep is O(n_aoa * n_tof * n_noise * ant_len) of pure
  // flat-array inner products.
  Workspace::Frame frame(ws);
  const std::span<cplx> g = ws.take<cplx>(n_tof * n_noise * ant_len);
  for (std::size_t ti = 0; ti < n_tof; ++ti) {
    const cplx* sub_vec = &tof_axis_->steering[ti * sub_len];
    for (std::size_t e = 0; e < n_noise; ++e) {
      for (std::size_t a = 0; a < ant_len; ++a) {
        cplx acc{};
        for (std::size_t s = 0; s < sub_len; ++s) {
          acc += std::conj(noise(a * sub_len + s, e)) * sub_vec[s];
        }
        g[(ti * n_noise + e) * ant_len + a] = acc;
      }
    }
  }

  for (std::size_t ai = 0; ai < n_aoa; ++ai) {
    const cplx* ant_vec = &aoa_axis_->steering[ai * ant_len];
    for (std::size_t ti = 0; ti < n_tof; ++ti) {
      double denom = 0.0;
      const cplx* gt = &g[ti * n_noise * ant_len];
      for (std::size_t e = 0; e < n_noise; ++e) {
        cplx proj{};
        for (std::size_t a = 0; a < ant_len; ++a) {
          proj += ant_vec[a] * gt[e * ant_len + a];
        }
        denom += std::norm(proj);
      }
      values(ai, ti) = 1.0 / std::max(denom, 1e-12);
    }
  }
}

AoaTofSpectrum JointMusicEstimator::spectrum(const CMatrix& csi) const {
  Workspace& ws = thread_workspace();
  Workspace::Frame frame(ws);
  const SubspacesRef sub = stage_subspace(ConstCMatrixView(csi), ws);
  AoaTofSpectrum sp;
  sp.aoa_grid_rad = aoa_axis_->grid;
  sp.tof_grid_s = tof_axis_->grid;
  sp.values = RMatrix(sp.aoa_grid_rad.size(), sp.tof_grid_s.size());
  spectrum_values(sub.noise, ws, sp.values.view());
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
  spectrum_values(sub.noise, ws, values);

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
  const std::size_t n_noise = sub.noise.cols();
  for (std::size_t ai = 0; ai < sp.aoa_grid_rad.size(); ++ai) {
    const cplx* a = &aoa_axis_->steering[ai * ant_len];
    double denom = 0.0;
    for (std::size_t e = 0; e < n_noise; ++e) {
      cplx proj{};
      for (std::size_t m = 0; m < ant_len; ++m) {
        proj += std::conj(sub.noise(m, e)) * a[m];
      }
      denom += std::norm(proj);
    }
    sp.values[ai] = 1.0 / std::max(denom, 1e-12);
  }
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
