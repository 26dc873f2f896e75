// Peak finding on MUSIC pseudospectra: local maxima on 1-D and 2-D grids
// with an optional circular axis (the ToF axis wraps at 1/f_delta) and
// sub-grid refinement by parabolic interpolation.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace spotfi {

struct GridPeak {
  std::size_t i = 0;  ///< row index (AoA axis for 2-D spectra)
  std::size_t j = 0;  ///< column index (ToF axis); 0 for 1-D spectra
  double value = 0.0;
};

/// Local maxima of a 1-D series (strictly greater than both neighbours;
/// plateau edges count once), sorted by value descending, dropping peaks
/// below `min_relative * global_max`, at most `max_peaks`.
[[nodiscard]] std::vector<GridPeak> find_peaks_1d(std::span<const double> f,
                                                  std::size_t max_peaks,
                                                  double min_relative = 0.0);

/// Local maxima of a 2-D grid over the 8-neighbourhood: cells no
/// neighbour exceeds and at least one neighbour is below. A constant grid
/// has none; every cell of a raised plateau that touches a lower cell is
/// one. NaN cells are never peaks, and a NaN neighbour neither blocks nor
/// supports one. When `wrap_cols` is set the column axis is treated as
/// circular (ToF periodicity). Returns the peaks by value descending,
/// equal values in row-major order, dropping peaks below
/// `min_relative * max|grid|`, at most `max_peaks`. One pass over the
/// grid; the only scratch is a min(max_peaks, rows * cols)-slot `ws`
/// checkout, which the returned span views until the caller's enclosing
/// frame closes.
[[nodiscard]] std::span<const GridPeak> find_peaks_2d(ConstRMatrixView grid,
                                                      bool wrap_cols,
                                                      std::size_t max_peaks,
                                                      double min_relative,
                                                      Workspace& ws);

/// Sub-grid offset in [-0.5, 0.5] of the extremum of the parabola through
/// (-1, f_m1), (0, f_0), (+1, f_p1). Returns 0 when the points are
/// degenerate or f_0 is not the largest.
[[nodiscard]] double parabolic_offset(double f_m1, double f_0, double f_p1);

}  // namespace spotfi
