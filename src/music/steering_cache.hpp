// Process-wide cache of precomputed MUSIC steering tables.
//
// A JointMusicEstimator's grids and steering tables are pure functions
// of (grid range/step, subarray length, link geometry). The hot paths
// construct estimators constantly — the server builds an ApProcessor
// (and with it two estimators) per AP per round, in every session, and
// a relaxed-MUSIC rung builds a third — so without sharing, the same
// ~80 KiB of tables is recomputed thousands of times per second, and N
// tenants hold N copies. This cache interns the (grid, table)
// pair per exact parameter set: every estimator constructed for the
// same deployment shares one immutable table, across rounds, servers,
// sessions, and threads.
//
// Sharing is safe because entries are immutable after construction and
// handed out as shared_ptr<const>; correctness is safe because keys
// compare the exact bit patterns of every double that influences the
// table values (grid endpoints/step and the link's carrier, spacing,
// and subcarrier-spacing parameters), so two estimators share a table
// only when they would have computed bit-identical ones.
#pragma once

#include <cstddef>
#include <memory>

#include "common/constants.hpp"
#include "linalg/matrix.hpp"

namespace spotfi {

/// One axis of the joint steering precomputation: the sample grid and
/// the row-major steering table (grid.size() rows of `len` entries).
struct SteeringAxisTable {
  RVector grid;
  CVector steering;
  std::size_t len = 0;
  /// AoA axis only (empty on a ToF axis): the MUSIC sweep's weights, a
  /// pure function of the steering rows. Row i holds len^2 reals for
  /// steering row ant: per antenna a, |ant_a|^2, then 2 Re and -2 Im of
  /// ant_a conj(ant_b) for each b > a.
  RVector weights;
  /// Per weight slot over the rows: a diagonal slot's least and largest
  /// weight, and in an off-diagonal pair's first `hi` slot the largest
  /// norm of the pair (music/estimators.cpp, column_bounds). The unused
  /// slots hold lo = +inf and hi = 0.
  RVector weight_lo;
  RVector weight_hi;
};

/// Cache telemetry (process-wide totals).
struct SteeringCacheStats {
  std::size_t hits = 0;
  /// Tables inserted: a lookup that built a table but lost the insert
  /// race to another thread counts as a hit.
  std::size_t misses = 0;
  std::size_t entries = 0;
};

class SteeringTableCache {
 public:
  enum class Axis {
    kAoa,  ///< aoa_steering rows over a linspace AoA grid
    kTof,  ///< tof_steering rows over a linspace ToF grid
  };

  /// The interned (grid, table) pair for one axis: linspace(lo, hi,
  /// step) sample points, steering vectors of length `len` under
  /// `link`. Computes and inserts on first request; thread-safe.
  [[nodiscard]] static std::shared_ptr<const SteeringAxisTable> get(
      Axis axis, double lo, double hi, double step, std::size_t len,
      const LinkConfig& link);

  [[nodiscard]] static SteeringCacheStats stats();
  /// Drops every cached entry (outstanding shared_ptrs stay valid) and
  /// zeroes the stats. Tests only.
  static void clear();

  /// Entries retained at most; beyond it the oldest entries are evicted
  /// (in-use tables stay alive through their shared_ptrs). Generous —
  /// a deployment uses a handful of configurations — but bounds memory
  /// when tests sweep many grids.
  static constexpr std::size_t kMaxEntries = 64;
};

/// The shared linspace used for every steering grid: lo + i * step,
/// including the endpoint when (hi - lo) is an exact multiple of step
/// up to a relative tolerance (see the implementation note).
[[nodiscard]] RVector linspace_grid(double lo, double hi, double step);

}  // namespace spotfi
