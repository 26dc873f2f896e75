#include "music/peaks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace spotfi {
namespace {

/// The 8-neighbour test at the cell `mid[i]`. `left` and `right` are its
/// neighbour columns, read at the same offsets as `mid`; `up` and `down`
/// are the offsets of rows i - 1 and i + 1. A neighbour that does not
/// exist is passed as the cell's own column or row: the cell itself and
/// repeats of real neighbours neither block a peak nor support one, so
/// the substitution leaves the test unchanged. A null column was not
/// computed: every cell of it lies below the floor, which the tested
/// cell does not (find_peaks_2d tests no cell below it), so it is lower.
/// A NaN neighbour compares false both ways: it neither blocks nor
/// supports.
bool is_peak(const double* left, const double* mid, const double* right,
             std::size_t up, std::size_t i, std::size_t down) {
  const double v = mid[i];
  // Same-column prefilter: on a smooth spectrum most tested cells stop
  // here.
  if (mid[up] > v || mid[down] > v) return false;
  bool lower = mid[up] < v || mid[down] < v;
  for (const double* c : {left, right}) {
    if (c == nullptr) {
      lower = true;
      continue;
    }
    if (c[up] > v || c[i] > v || c[down] > v) return false;
    lower = lower || c[up] < v || c[i] < v || c[down] < v;
  }
  return lower;
}

/// A row-major matrix read as columns: every column is swept.
struct DenseColumns {
  ConstRMatrixView grid;

  [[nodiscard]] std::size_t rows() const { return grid.rows(); }
  [[nodiscard]] std::size_t cols() const { return grid.cols(); }
  [[nodiscard]] std::size_t stride() const { return grid.stride(); }
  [[nodiscard]] std::size_t n_swept() const { return grid.cols(); }
  [[nodiscard]] std::size_t swept(std::size_t s) const { return s; }
  [[nodiscard]] const double* col(std::size_t j) const {
    return grid.data() + j;
  }
};

/// A ColumnGrid: contiguous columns, null where not computed.
struct SparseColumns {
  const ColumnGrid& grid;

  [[nodiscard]] std::size_t rows() const { return grid.rows; }
  [[nodiscard]] std::size_t cols() const { return grid.col.size(); }
  [[nodiscard]] std::size_t stride() const { return 1; }
  [[nodiscard]] std::size_t n_swept() const { return grid.swept.size(); }
  [[nodiscard]] std::size_t swept(std::size_t s) const {
    return grid.swept[s];
  }
  [[nodiscard]] const double* col(std::size_t j) const { return grid.col[j]; }
};

/// find_peaks_2d over either column source (see the header).
template <class Columns>
std::span<const GridPeak> find_peaks_columns(const Columns& g, bool wrap_cols,
                                             std::size_t max_peaks,
                                             double min_relative,
                                             Workspace& ws) {
  SPOTFI_EXPECTS(max_peaks > 0, "max_peaks must be positive");
  SPOTFI_EXPECTS(g.rows() >= 1 && g.cols() >= 1, "empty grid");
  const std::size_t rows = g.rows();
  const std::size_t cols = g.cols();
  const std::size_t stride = g.stride();
  const std::size_t n_swept = g.n_swept();

  // max|grid| in four independent lanes, merged after the pass. Exact: a
  // max over non-NaN values does not depend on order, and
  // std::max(acc, NaN) keeps acc, so no lane ever holds a NaN.
  double lane_max[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t blocked = n_swept - n_swept % 4;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t at = i * stride;
    for (std::size_t s = 0; s < blocked; s += 4) {
      for (std::size_t l = 0; l < 4; ++l) {
        lane_max[l] =
            std::max(lane_max[l], std::abs(g.col(g.swept(s + l))[at]));
      }
    }
    for (std::size_t s = blocked; s < n_swept; ++s) {
      lane_max[0] = std::max(lane_max[0], std::abs(g.col(g.swept(s))[at]));
    }
  }
  const double global_max = std::max(std::max(lane_max[0], lane_max[1]),
                                     std::max(lane_max[2], lane_max[3]));
  // Only cells at or above the floor are tested: the rest would be
  // dropped, and NaN cells, never peaks, fail the comparison too. A NaN
  // floor (NaN min_relative) drops nothing.
  const double floor_value = min_relative * global_max;
  const double lowest = std::isnan(floor_value)
                            ? -std::numeric_limits<double>::infinity()
                            : floor_value;

  // The strongest peaks so far, by value descending. Cells are offered in
  // row-major order and a peak never displaces an equal one offered
  // before it, so equal values keep row-major order.
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
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t at = i * stride;
    const std::size_t up = i > 0 ? at - stride : at;
    const std::size_t down = i + 1 < rows ? at + stride : at;
    for (std::size_t s = 0; s < n_swept; ++s) {
      const std::size_t j = g.swept(s);
      const double* mid = g.col(j);
      const double v = mid[at];
      if (!(v >= lowest)) continue;
      const std::size_t jl = j > 0 ? j - 1 : (wrap_cols ? cols - 1 : j);
      const std::size_t jr = j + 1 < cols ? j + 1 : (wrap_cols ? 0 : j);
      if (is_peak(g.col(jl), mid, g.col(jr), up, at, down)) offer(i, j, v);
    }
  }
  return top.first(n);
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
    // Each flat run [a, b] once: a peak when each neighbour that exists
    // is lower. A lone run (a constant series) has neither.
    for (std::size_t a = 0, b = 0; a < n; a = b + 1) {
      for (b = a; b + 1 < n && f[b + 1] == f[a];) ++b;
      const bool left_ok = a == 0 || f[a - 1] < f[a];
      const bool right_ok = b == n - 1 || f[b + 1] < f[b];
      if (left_ok && right_ok && (a > 0 || b < n - 1)) {
        peaks.push_back({a, 0, f[a]});
      }
    }
  }
  std::stable_sort(peaks.begin(), peaks.end(),
                   [](const GridPeak& a, const GridPeak& b) {
                     return a.value > b.value;
                   });
  const double floor_value = min_relative * global_max;
  std::erase_if(peaks,
                [&](const GridPeak& p) { return p.value < floor_value; });
  if (peaks.size() > max_peaks) peaks.resize(max_peaks);
  return peaks;
}

std::span<const GridPeak> find_peaks_2d(ConstRMatrixView grid, bool wrap_cols,
                                        std::size_t max_peaks,
                                        double min_relative, Workspace& ws) {
  return find_peaks_columns(DenseColumns{grid}, wrap_cols, max_peaks,
                            min_relative, ws);
}

std::span<const GridPeak> find_peaks_2d(const ColumnGrid& grid,
                                        bool wrap_cols, std::size_t max_peaks,
                                        double min_relative, Workspace& ws) {
  SPOTFI_EXPECTS(grid.swept.size() <= grid.col.size(),
                 "more swept columns than the grid has");
  return find_peaks_columns(SparseColumns{grid}, wrap_cols, max_peaks,
                            min_relative, ws);
}

double parabolic_offset(double f_m1, double f_0, double f_p1) {
  const double denom = f_m1 - 2.0 * f_0 + f_p1;
  if (!(f_0 >= f_m1 && f_0 >= f_p1) || std::abs(denom) < 1e-300) return 0.0;
  const double offset = 0.5 * (f_m1 - f_p1) / denom;
  return std::clamp(offset, -0.5, 0.5);
}

}  // namespace spotfi
