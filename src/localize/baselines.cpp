#include "localize/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/levmar.hpp"
#include "linalg/solve.hpp"

namespace spotfi {

Vec2 triangulate_aoa(std::span<const ApObservation> observations) {
  SPOTFI_EXPECTS(observations.size() >= 2,
                 "triangulation needs at least two APs");
  // Each AP defines the line {a + t*u}: a = AP position, u = bearing
  // direction. Perpendicular residual (I - u u^T)(x - a) gives the normal
  // equations sum w (I - u u^T) x = sum w (I - u u^T) a.
  RMatrix m(2, 2);
  RVector rhs(2, 0.0);
  for (const auto& obs : observations) {
    const double w = std::max(obs.likelihood, 0.0);
    if (w <= 0.0) continue;
    const Vec2 n = obs.pose.normal_dir();
    const Vec2 ax = obs.pose.axis_dir();
    const Vec2 u = n * std::cos(obs.direct_aoa_rad) +
                   ax * std::sin(obs.direct_aoa_rad);
    const double pxx = 1.0 - u.x * u.x;
    const double pxy = -u.x * u.y;
    const double pyy = 1.0 - u.y * u.y;
    const Vec2 a = obs.pose.position;
    m(0, 0) += w * pxx;
    m(0, 1) += w * pxy;
    m(1, 0) += w * pxy;
    m(1, 1) += w * pyy;
    rhs[0] += w * (pxx * a.x + pxy * a.y);
    rhs[1] += w * (pxy * a.x + pyy * a.y);
  }
  const RVector x = solve_spd(m, rhs);  // throws on degenerate geometry
  return {x[0], x[1]};
}

Vec2 trilaterate_rssi(std::span<const ApObservation> observations,
                      const RssiTrilaterationConfig& config) {
  SPOTFI_EXPECTS(observations.size() >= 3,
                 "trilateration needs at least three APs");
  std::vector<double> ranges;
  Vec2 centroid{};
  for (const auto& obs : observations) {
    ranges.push_back(config.path_loss.distance_m(obs.rssi_dbm));
    centroid += obs.pose.position;
  }
  centroid = centroid / static_cast<double>(observations.size());

  const ResidualFn residuals = [&](std::span<const double> p,
                                   std::span<double> r) {
    for (std::size_t i = 0; i < observations.size(); ++i) {
      const double d =
          distance({p[0], p[1]}, observations[i].pose.position);
      r[i] = d - ranges[i];
    }
  };
  const RVector x0{centroid.x, centroid.y};
  const LevMarResult res =
      levenberg_marquardt(residuals, observations.size(), x0);
  return {res.x[0], res.x[1]};
}

double spectrum_at(const AoaSpectrum& spectrum, double aoa_rad) {
  const auto& grid = spectrum.aoa_grid_rad;
  SPOTFI_EXPECTS(grid.size() >= 2 && grid.size() == spectrum.values.size(),
                 "malformed spectrum");
  if (aoa_rad <= grid.front()) return spectrum.values.front();
  if (aoa_rad >= grid.back()) return spectrum.values.back();
  const auto it = std::upper_bound(grid.begin(), grid.end(), aoa_rad);
  const std::size_t hi = static_cast<std::size_t>(it - grid.begin());
  const std::size_t lo = hi - 1;
  const double f = (aoa_rad - grid[lo]) / (grid[hi] - grid[lo]);
  return spectrum.values[lo] + f * (spectrum.values[hi] - spectrum.values[lo]);
}

Vec2 arraytrack_locate(std::span<const ApSpectrum> spectra,
                       const ArrayTrackConfig& config) {
  SPOTFI_EXPECTS(spectra.size() >= 2, "need at least two AP spectra");
  SPOTFI_EXPECTS(config.grid_step_m > 0.0, "grid step must be positive");
  SPOTFI_EXPECTS(config.area_max.x > config.area_min.x &&
                     config.area_max.y > config.area_min.y,
                 "search area must have positive extent");

  auto score = [&](Vec2 loc) {
    double s = 0.0;
    for (const auto& ap : spectra) {
      const double bearing = ap.pose.apparent_aoa_of(loc);
      s += std::log(std::max(spectrum_at(ap.spectrum, bearing), 1e-12));
    }
    return s;
  };

  // Coarse grid sweep.
  Vec2 best = config.area_min;
  double best_score = -std::numeric_limits<double>::max();
  for (double x = config.area_min.x; x <= config.area_max.x;
       x += config.grid_step_m) {
    for (double y = config.area_min.y; y <= config.area_max.y;
         y += config.grid_step_m) {
      const double s = score({x, y});
      if (s > best_score) {
        best_score = s;
        best = {x, y};
      }
    }
  }
  // Local refinement: shrinking pattern search.
  double step = config.grid_step_m / 2.0;
  while (step > 0.01) {
    bool improved = false;
    for (const Vec2 d : {Vec2{step, 0.0}, Vec2{-step, 0.0}, Vec2{0.0, step},
                         Vec2{0.0, -step}}) {
      const Vec2 cand = best + d;
      if (cand.x < config.area_min.x || cand.x > config.area_max.x ||
          cand.y < config.area_min.y || cand.y > config.area_max.y) {
        continue;
      }
      const double s = score(cand);
      if (s > best_score) {
        best_score = s;
        best = cand;
        improved = true;
      }
    }
    if (!improved) step /= 2.0;
  }
  return best;
}

}  // namespace spotfi
