// JointMusicEstimator::stage_spectrum restated over a full pseudospectrum
// grid: the reference its pruned sweep must reproduce bit for bit.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "music/estimators.hpp"
#include "music/peaks.hpp"

namespace spotfi {

/// find_peaks_2d over the whole grid (max_paths twice over, as AoA edge
/// rows are excluded), edge rows skipped in order, at most max_paths,
/// then parabolic refinement on the grid neighbours: AoA rows i +- 1
/// inside the grid, ToF columns j +- 1 wrapping when the estimator's
/// axis does and skipped at a non-wrapping end.
inline std::vector<PathEstimate> full_grid_estimates(
    const JointMusicEstimator& est, const RMatrix& values, Workspace& ws) {
  const JointMusicConfig& cfg = est.config();
  const std::size_t n_aoa = values.rows();
  const std::size_t n_tof = values.cols();
  const bool wraps = est.tof_axis_wraps();
  Workspace::Frame frame(ws);
  std::vector<PathEstimate> out;
  for (const GridPeak& pk : find_peaks_2d(values, wraps, 2 * cfg.max_paths,
                                          cfg.min_relative_peak, ws)) {
    if (pk.i == 0 || pk.i + 1 == n_aoa) continue;
    if (out.size() == cfg.max_paths) break;
    double di = 0.0;
    double dj = 0.0;
    if (cfg.refine_peaks) {
      if (pk.i > 0 && pk.i + 1 < n_aoa) {
        di = parabolic_offset(values(pk.i - 1, pk.j), values(pk.i, pk.j),
                              values(pk.i + 1, pk.j));
      }
      const bool inside = pk.j > 0 && pk.j + 1 < n_tof;
      if (n_tof > 1 && (inside || wraps)) {
        dj = parabolic_offset(values(pk.i, (pk.j + n_tof - 1) % n_tof),
                              values(pk.i, pk.j),
                              values(pk.i, (pk.j + 1) % n_tof));
      }
    }
    PathEstimate path;
    path.power = pk.value;
    path.aoa_rad = est.aoa_grid()[pk.i] + di * cfg.aoa_step_rad;
    path.tof_s = est.tof_grid()[pk.j] + dj * cfg.tof_step_s;
    out.push_back(path);
  }
  return out;
}

/// True when a and b hold the same estimates, compared bit for bit.
inline bool same_bits(std::span<const PathEstimate> a,
                      std::span<const PathEstimate> b) {
  if (a.size() != b.size()) return false;
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (bits(a[k].aoa_rad) != bits(b[k].aoa_rad) ||
        bits(a[k].tof_s) != bits(b[k].tof_s) ||
        bits(a[k].power) != bits(b[k].power)) {
      return false;
    }
  }
  return true;
}

}  // namespace spotfi
