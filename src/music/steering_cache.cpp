#include "music/steering_cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "music/steering.hpp"

namespace spotfi {
namespace {

/// Everything that influences an axis table's values, compared by exact
/// bit pattern. Both link frequencies and the spacing are included for
/// both axes (one of them is inert per axis) — a few inert bytes beat a
/// key that silently under-identifies when the steering model changes.
struct TableKey {
  std::uint8_t axis = 0;
  std::size_t len = 0;
  std::array<std::uint64_t, 6> bits{};  ///< lo, hi, step, carrier,
                                        ///< antenna spacing, subcarrier
                                        ///< spacing

  bool operator==(const TableKey&) const = default;
};

struct TableKeyHash {
  std::size_t operator()(const TableKey& k) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ k.axis;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(k.len);
    for (const std::uint64_t b : k.bits) mix(b);
    return static_cast<std::size_t>(h);
  }
};

struct CacheState {
  std::mutex mutex;
  std::unordered_map<TableKey, std::shared_ptr<const SteeringAxisTable>,
                     TableKeyHash>
      entries;
  std::deque<TableKey> insertion_order;  ///< oldest first, for eviction
  std::size_t hits = 0;
  std::size_t misses = 0;
};

CacheState& cache() {
  static CacheState state;
  return state;
}

/// Flattens steering vectors for every grid point into one row-major
/// table: row i holds steer(grid[i]).
template <typename SteerFn>
CVector steering_table(const RVector& grid, std::size_t len, SteerFn&& steer) {
  CVector table;
  table.reserve(grid.size() * len);
  for (const double x : grid) {
    const CVector v = steer(x);
    table.insert(table.end(), v.begin(), v.end());
  }
  return table;
}

/// Fills an AoA axis's sweep weights and their per-slot extremes from
/// its steering rows.
void add_sweep_weights(SteeringAxisTable& axis) {
  const std::size_t len = axis.len;
  const std::size_t dof = len * len;
  const std::size_t n_aoa = axis.grid.size();
  axis.weights.assign(n_aoa * dof, 0.0);
  for (std::size_t ai = 0; ai < n_aoa; ++ai) {
    const cplx* ant_vec = &axis.steering[ai * len];
    double* w = &axis.weights[ai * dof];
    for (std::size_t a = 0; a < len; ++a) {
      for (std::size_t b = a; b < len; ++b) {
        if (b == a) {
          *w++ = std::norm(ant_vec[a]);
        } else {
          const cplx p = ant_vec[a] * std::conj(ant_vec[b]);
          *w++ = 2.0 * p.real();
          *w++ = -2.0 * p.imag();
        }
      }
    }
  }

  RVector& lo = axis.weight_lo;
  RVector& hi = axis.weight_hi;
  lo.assign(dof, std::numeric_limits<double>::infinity());
  hi.assign(dof, 0.0);
  for (std::size_t ai = 0; ai < n_aoa; ++ai) {
    const double* w = &axis.weights[ai * dof];
    std::size_t k = 0;
    for (std::size_t a = 0; a < len; ++a) {
      lo[k] = std::min(lo[k], w[k]);
      hi[k] = std::max(hi[k], w[k]);
      ++k;
      for (std::size_t b = a + 1; b < len; ++b, k += 2) {
        hi[k] = std::max(hi[k], w[k] * w[k] + w[k + 1] * w[k + 1]);
      }
    }
  }
  for (std::size_t a = 0, k = 0; a < len; ++a) {
    ++k;
    for (std::size_t b = a + 1; b < len; ++b, k += 2) {
      hi[k] = std::sqrt(hi[k]);
    }
  }
}

}  // namespace

RVector linspace_grid(double lo, double hi, double step) {
  SPOTFI_EXPECTS(step > 0.0 && hi > lo, "invalid grid parameters");
  // A range that is an exact multiple of the step must include the
  // endpoint on every platform. (hi - lo) / step carries rounding error
  // proportional to its own magnitude, so the snap-to-integer tolerance
  // must be relative: a fixed 1e-9 absolute slack either misses an exact
  // multiple computed a few ulps low or swallows a genuine sub-step
  // shortfall, and the grid gains/drops its endpoint depending on libm.
  const double ratio = (hi - lo) / step;
  const double nearest = std::round(ratio);
  const double tol =
      64.0 * std::numeric_limits<double>::epsilon() * std::max(1.0, ratio);
  const auto count =
      std::abs(ratio - nearest) <= tol
          ? static_cast<std::size_t>(nearest) + 1
          : static_cast<std::size_t>(std::floor(ratio)) + 1;
  RVector g;
  g.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    g.push_back(lo + static_cast<double>(i) * step);
  }
  return g;
}

std::shared_ptr<const SteeringAxisTable> SteeringTableCache::get(
    Axis axis, double lo, double hi, double step, std::size_t len,
    const LinkConfig& link) {
  TableKey key;
  key.axis = static_cast<std::uint8_t>(axis);
  key.len = len;
  key.bits = {std::bit_cast<std::uint64_t>(lo),
              std::bit_cast<std::uint64_t>(hi),
              std::bit_cast<std::uint64_t>(step),
              std::bit_cast<std::uint64_t>(link.carrier_hz),
              std::bit_cast<std::uint64_t>(link.antenna_spacing_m),
              std::bit_cast<std::uint64_t>(link.subcarrier_spacing_hz)};

  CacheState& state = cache();
  {
    const std::lock_guard<std::mutex> lock(state.mutex);
    const auto it = state.entries.find(key);
    if (it != state.entries.end()) {
      ++state.hits;
      return it->second;
    }
  }

  // Compute outside the lock: table construction is the expensive part,
  // and a duplicate computation under a rare race costs less than
  // serializing every miss. Whichever insert lands first wins and counts
  // the miss; a builder that loses the race counts a hit, so `misses`
  // equals the number of tables inserted. Both results are bit-identical
  // by construction.
  auto table = std::make_shared<SteeringAxisTable>();
  table->grid = linspace_grid(lo, hi, step);
  table->len = len;
  table->steering =
      axis == Axis::kAoa
          ? steering_table(table->grid, len,
                           [&](double aoa) {
                             return aoa_steering(aoa, len, link);
                           })
          : steering_table(table->grid, len, [&](double tof) {
              return tof_steering(tof, len, link);
            });
  if (axis == Axis::kAoa) add_sweep_weights(*table);

  const std::lock_guard<std::mutex> lock(state.mutex);
  const auto [it, inserted] = state.entries.emplace(key, std::move(table));
  if (!inserted) {
    ++state.hits;
  } else {
    ++state.misses;
    state.insertion_order.push_back(key);
    while (state.entries.size() > kMaxEntries &&
           !state.insertion_order.empty()) {
      state.entries.erase(state.insertion_order.front());
      state.insertion_order.pop_front();
    }
  }
  return it->second;
}

SteeringCacheStats SteeringTableCache::stats() {
  CacheState& state = cache();
  const std::lock_guard<std::mutex> lock(state.mutex);
  return {state.hits, state.misses, state.entries.size()};
}

void SteeringTableCache::clear() {
  CacheState& state = cache();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.entries.clear();
  state.insertion_order.clear();
  state.hits = 0;
  state.misses = 0;
}

}  // namespace spotfi
