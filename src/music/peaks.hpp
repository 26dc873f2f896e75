// Peak finding on MUSIC pseudospectra: local maxima on 1-D and 2-D grids
// with an optional circular axis (the ToF axis wraps at 1/f_delta) and
// sub-grid refinement by parabolic interpolation.
//
// The 2-D finder reads a grid either whole (a row-major matrix) or as
// the pruned MUSIC sweep leaves it: one pointer per column, null for a
// column that was never computed because no cell of it can reach the
// relative floor. Both run one 8-neighbour test.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace spotfi {

struct GridPeak {
  std::size_t i = 0;  ///< row index (AoA axis for 2-D spectra)
  std::size_t j = 0;  ///< column index (ToF axis); 0 for 1-D spectra
  double value = 0.0;
};

/// Local maxima of a 1-D series: a point, or a flat run counted once at
/// its first index, that is higher than its neighbour on each side where
/// the series has one. A run that rises further on either side is not a
/// peak, nor is a constant series; a one-point series is one. In a
/// longer series a NaN point is never a peak, and a NaN neighbour blocks
/// one. Sorted by value descending, equal values in index order,
/// dropping peaks below `min_relative * global_max`, at most
/// `max_peaks`.
[[nodiscard]] std::vector<GridPeak> find_peaks_1d(std::span<const double> f,
                                                  std::size_t max_peaks,
                                                  double min_relative = 0.0);

/// A grid held column by column, some columns possibly skipped: cell
/// (i, j) is col[j][i], and col[j] is null when column j was not
/// computed. `swept` lists the non-null columns in ascending order.
///
/// A column may be skipped only when every cell c of it has
/// |c| < min(min_relative, 1) * max|grid| (so none when min_relative
/// <= 0 or is NaN). Such a cell is below the finder's floor
/// `min_relative * max|grid|` and below the grid's largest magnitude, so
/// it cannot set the floor, cannot be a surviving peak, and cannot block
/// one: every cell at or above the floor is higher than it. The finder
/// reads a skipped column as strictly lower than any cell it tests, and
/// returns exactly what it would on the complete grid.
struct ColumnGrid {
  std::size_t rows = 0;
  std::span<const double* const> col;
  std::span<const std::size_t> swept;
};

/// Local maxima of a 2-D grid over the 8-neighbourhood: cells no
/// neighbour exceeds and at least one neighbour is below. A constant grid
/// has none; every cell of a raised plateau that touches a lower cell is
/// one. NaN cells are never peaks, and a NaN neighbour neither blocks nor
/// supports one. When `wrap_cols` is set the column axis is treated as
/// circular (ToF periodicity). Returns the peaks by value descending,
/// equal values in row-major order, dropping peaks below
/// `min_relative * max|grid|`, at most `max_peaks`.
///
/// Two passes: max|grid| (four independent lanes), then the
/// neighbourhood test at every cell at or above the floor, in row-major
/// order; a cell below it cannot survive, so it is not tested. The only
/// scratch is a min(max_peaks, rows * cols)-slot `ws` checkout, which
/// the returned span views until the caller's enclosing frame closes.
/// This full-grid form serves tests and benches; the estimator calls
/// the ColumnGrid form below.
[[nodiscard]] std::span<const GridPeak> find_peaks_2d(ConstRMatrixView grid,
                                                      bool wrap_cols,
                                                      std::size_t max_peaks,
                                                      double min_relative,
                                                      Workspace& ws);

/// The same search over a ColumnGrid: only the swept columns are read,
/// and a skipped neighbour column counts as lower.
[[nodiscard]] std::span<const GridPeak> find_peaks_2d(const ColumnGrid& grid,
                                                      bool wrap_cols,
                                                      std::size_t max_peaks,
                                                      double min_relative,
                                                      Workspace& ws);

/// Sub-grid offset in [-0.5, 0.5] of the extremum of the parabola through
/// (-1, f_m1), (0, f_0), (+1, f_p1). Returns 0 when the points are
/// degenerate or f_0 is not the largest.
[[nodiscard]] double parabolic_offset(double f_m1, double f_0, double f_p1);

}  // namespace spotfi
