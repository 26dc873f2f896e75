#include "music/peaks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

namespace spotfi {
namespace {

void sort_and_trim(std::vector<GridPeak>& peaks, std::size_t max_peaks,
                   double min_relative, double global_max) {
  std::sort(peaks.begin(), peaks.end(),
            [](const GridPeak& a, const GridPeak& b) {
              return a.value > b.value;
            });
  const double floor_value = min_relative * global_max;
  std::erase_if(peaks,
                [&](const GridPeak& p) { return p.value < floor_value; });
  if (peaks.size() > max_peaks) peaks.resize(max_peaks);
}

/// The 8-neighbourhood local-maximum test at the grid's border rows and
/// columns. Out-of-range neighbours simply do not exist (they neither
/// block a peak nor count as dominated); the column axis optionally
/// wraps. Flat regions are not peaks: dominance over at least one
/// neighbour is required so constant grids yield nothing.
bool is_peak_2d(ConstRMatrixView grid, bool wrap_cols, std::size_t i,
                std::size_t j) {
  const std::size_t rows = grid.rows();
  const std::size_t cols = grid.cols();
  const double v = grid(i, j);
  auto value_at = [&](std::ptrdiff_t ii,
                      std::ptrdiff_t jj) -> std::optional<double> {
    if (ii < 0 || ii >= static_cast<std::ptrdiff_t>(rows)) return std::nullopt;
    if (wrap_cols) {
      const auto c = static_cast<std::ptrdiff_t>(cols);
      jj = ((jj % c) + c) % c;
    } else if (jj < 0 || jj >= static_cast<std::ptrdiff_t>(cols)) {
      return std::nullopt;
    }
    return grid(static_cast<std::size_t>(ii), static_cast<std::size_t>(jj));
  };
  bool strictly_above_one = false;
  for (int di = -1; di <= 1; ++di) {
    for (int dj = -1; dj <= 1; ++dj) {
      if (di == 0 && dj == 0) continue;
      const auto nb = value_at(static_cast<std::ptrdiff_t>(i) + di,
                               static_cast<std::ptrdiff_t>(j) + dj);
      if (!nb) continue;
      if (*nb > v) return false;
      if (*nb < v) strictly_above_one = true;
    }
  }
  return strictly_above_one;
}

/// The same test at an interior cell, where all eight neighbours exist:
/// `up`, `mid` and `down` point at column j of rows i-1, i and i+1. Like
/// is_peak_2d it is NaN-neutral: a NaN neighbour compares false both
/// ways, so it neither blocks the peak nor counts toward it, and a NaN
/// cell is never a peak.
bool is_interior_peak(const double* up, const double* mid,
                      const double* down) {
  const double v = mid[0];
  // Same-row prefilter: most cells of a smooth spectrum stop here.
  if (mid[-1] > v || mid[1] > v) return false;
  if (up[-1] > v || up[0] > v || up[1] > v || down[-1] > v || down[0] > v ||
      down[1] > v) {
    return false;
  }
  return mid[-1] < v || mid[1] < v || up[-1] < v || up[0] < v || up[1] < v ||
         down[-1] < v || down[0] < v || down[1] < v;
}

}  // namespace

std::vector<GridPeak> find_peaks_1d(std::span<const double> f,
                                    std::size_t max_peaks,
                                    double min_relative) {
  SPOTFI_EXPECTS(max_peaks > 0, "max_peaks must be positive");
  std::vector<GridPeak> peaks;
  if (f.empty()) return peaks;
  double global_max = f[0];
  for (double v : f) global_max = std::max(global_max, v);

  const std::size_t n = f.size();
  if (n == 1) {
    peaks.push_back({0, 0, f[0]});
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const bool left_ok = i == 0 ? f[i] > f[i + 1] : f[i] > f[i - 1];
      const bool right_ok = i == n - 1 ? f[i] > f[i - 1] : f[i] >= f[i + 1];
      // Interior plateaus: count only the left edge (strict > on the left).
      if (left_ok && right_ok) peaks.push_back({i, 0, f[i]});
    }
  }
  sort_and_trim(peaks, max_peaks, min_relative, global_max);
  return peaks;
}

std::span<const GridPeak> find_peaks_2d(ConstRMatrixView grid, bool wrap_cols,
                                        std::size_t max_peaks,
                                        double min_relative, Workspace& ws) {
  SPOTFI_EXPECTS(max_peaks > 0, "max_peaks must be positive");
  SPOTFI_EXPECTS(grid.rows() >= 1 && grid.cols() >= 1, "empty grid");
  const std::size_t rows = grid.rows();
  const std::size_t cols = grid.cols();
  // The strongest candidates so far, by value descending. A candidate
  // never displaces an equal one offered before it, so equal values keep
  // row-major order.
  const std::span<GridPeak> top =
      ws.take<GridPeak>(std::min(max_peaks, rows * cols));
  std::size_t n = 0;
  const auto offer = [&](std::size_t i, std::size_t j, double v) {
    if (n == top.size()) {
      if (!(v > top[n - 1].value)) return;
      --n;
    }
    std::size_t k = n++;
    for (; k > 0 && top[k - 1].value < v; --k) top[k] = top[k - 1];
    top[k] = {i, j, v};
  };
  // max|grid| in four independent lanes, merged after the pass. Exact: a
  // max over non-NaN values does not depend on order, and
  // std::max(acc, NaN) keeps acc, so no lane ever holds a NaN.
  double lane_max[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t blocked = cols - cols % 4;
  for (std::size_t i = 0; i < rows; ++i) {
    const double* mid = grid.row_ptr(i);
    for (std::size_t j = 0; j < blocked; j += 4) {
      for (std::size_t l = 0; l < 4; ++l) {
        lane_max[l] = std::max(lane_max[l], std::abs(mid[j + l]));
      }
    }
    for (std::size_t j = blocked; j < cols; ++j) {
      lane_max[0] = std::max(lane_max[0], std::abs(mid[j]));
    }
    if (i == 0 || i + 1 == rows) {
      for (std::size_t j = 0; j < cols; ++j) {
        if (is_peak_2d(grid, wrap_cols, i, j)) offer(i, j, mid[j]);
      }
      continue;
    }
    const double* up = grid.row_ptr(i - 1);
    const double* down = grid.row_ptr(i + 1);
    if (is_peak_2d(grid, wrap_cols, i, 0)) offer(i, 0, mid[0]);
    for (std::size_t j = 1; j + 1 < cols; ++j) {
      if (is_interior_peak(up + j, mid + j, down + j)) offer(i, j, mid[j]);
    }
    if (cols > 1 && is_peak_2d(grid, wrap_cols, i, cols - 1)) {
      offer(i, cols - 1, mid[cols - 1]);
    }
  }
  const double global_max = std::max(std::max(lane_max[0], lane_max[1]),
                                     std::max(lane_max[2], lane_max[3]));
  const double floor_value = min_relative * global_max;
  while (n > 0 && top[n - 1].value < floor_value) --n;
  return top.first(n);
}

double parabolic_offset(double f_m1, double f_0, double f_p1) {
  const double denom = f_m1 - 2.0 * f_0 + f_p1;
  if (!(f_0 >= f_m1 && f_0 >= f_p1) || std::abs(denom) < 1e-300) return 0.0;
  const double offset = 0.5 * (f_m1 - f_p1) / denom;
  return std::clamp(offset, -0.5, 0.5);
}

}  // namespace spotfi
