#include "localize/spotfi_localizer.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/angles.hpp"
#include "linalg/numerics.hpp"

namespace spotfi {
namespace {

/// Pseudo-residual realizing a Huber loss: quadratic inside `delta`,
/// linear outside, so that r^2 equals the Huber objective.
double huberize(double r, double delta) {
  if (delta <= 0.0) return r;
  const double a = std::abs(r);
  if (a <= delta) return r;
  return std::copysign(std::sqrt(delta * (2.0 * a - delta)), r);
}

/// The location-independent half of one AP's Eq. 9 terms, w = l^gamma.
struct ApTerm {
  Vec2 position;
  Vec2 axis;                ///< array axis: sin(apparent AoA) = axis . unit
  double weight = 0.0;      ///< w
  double aoa_scale = 0.0;   ///< sqrt(w) * kAoaWeight
  double rssi_scale = 0.0;  ///< sqrt(w) * kRssiWeight
  double aoa_rad = 0.0;
  double rssi_dbm = 0.0;
  bool has_aoa = false;
};

/// One AP's geometry at the point under evaluation.
struct ApPoint {
  Vec2 offset;            ///< point - AP position
  double dist = 0.0;      ///< |offset|
  double log_dist = 0.0;  ///< log10(max(dist, 0.1 m) / d0)
};

/// Eq. 9 over a table of per-AP terms built once per solve. A point costs
/// one hypot and one log10 per AP, plus one asin per AP with a bearing:
/// the closed-form path-loss fit, the RSSI prediction and the bearing all
/// read the same distance and log-distance.
class Eq9Kernel {
 public:
  /// Tables the observations with positive likelihood, in order, on `ws`
  /// under the caller's frame. `d0_m` is the path-loss reference distance
  /// of every log-distance.
  Eq9Kernel(std::span<const ApObservation> observations,
            const LocalizerConfig& config, double d0_m, Workspace& ws)
      : config_(config), d0_m_(d0_m) {
    const auto usable = [](const ApObservation& obs) {
      return obs.likelihood > 0.0;
    };
    const auto n = static_cast<std::size_t>(
        std::count_if(observations.begin(), observations.end(), usable));
    terms_ = ws.take<ApTerm>(n);
    points_ = ws.take<ApPoint>(n);
    std::size_t i = 0;
    for (const auto& obs : observations) {
      if (!usable(obs)) continue;
      ApTerm& t = terms_[i++];
      t.position = obs.pose.position;
      t.axis = obs.pose.axis_dir();
      t.weight = std::pow(obs.likelihood, config.likelihood_exponent);
      const double root_w = std::sqrt(t.weight);
      t.aoa_scale = root_w * kAoaWeight;
      t.rssi_scale = root_w * kRssiWeight;
      t.aoa_rad = obs.direct_aoa_rad;
      t.rssi_dbm = obs.rssi_dbm;
      t.has_aoa = obs.has_aoa;
      // The fit's sums that do not depend on the location.
      sum_w_ += t.weight;
      sum_wp_ += t.weight * t.rssi_dbm;
    }
  }

  [[nodiscard]] std::span<const ApTerm> terms() const { return terms_; }

  /// Every AP's offset, distance and log-distance at `loc`.
  void measure(Vec2 loc) {
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      ApPoint& p = points_[i];
      p.offset = loc - terms_[i].position;
      p.dist = p.offset.norm();
      p.log_dist = std::log10(std::max(p.dist, 0.1) / d0_m_);
    }
  }

  /// The RSSI model p0 - 10*exponent*log10(d/d0) is *linear* in (p0,
  /// exponent), so at the measured point the optimal path-loss parameters
  /// have a closed form: weighted least squares, exponent clamped to its
  /// physical bounds.
  [[nodiscard]] PathLossModel fit_path_loss() const {
    double s_g = 0.0, s_gg = 0.0, s_gr = 0.0;
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      const double w = terms_[i].weight;
      const double g = -10.0 * points_[i].log_dist;  // rssi = p0 + g * exponent
      s_g += w * g;
      s_gg += w * g * g;
      s_gr += w * g * terms_[i].rssi_dbm;
    }
    PathLossModel model = config_.initial_path_loss;
    const double denom = sum_w_ * s_gg - s_g * s_g;
    if (std::abs(denom) > 1e-12 && sum_w_ > 0.0) {
      model.exponent =
          std::clamp((sum_w_ * s_gr - s_g * sum_wp_) / denom,
                     config_.min_exponent, config_.max_exponent);
    }
    if (sum_w_ > 0.0) {
      // Optimal p0 given the (possibly clamped) exponent.
      model.p0_dbm = (sum_wp_ - model.exponent * s_g) / sum_w_;
    }
    return model;
  }

  /// Two residuals per AP at the measured point under `model`:
  /// sqrt(w) * [kAoaWeight * huber(dtheta), kRssiWeight * dp].
  void residuals(const PathLossModel& model, std::span<double> out) const {
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      const ApTerm& t = terms_[i];
      const ApPoint& p = points_[i];
      if (t.has_aoa) {
        // Predict the *apparent* AoA: the measured value lives in the
        // ULA's aliased [-pi/2, pi/2] range.
        const Vec2 unit = p.dist > 0.0
                              ? Vec2{p.offset.x / p.dist, p.offset.y / p.dist}
                              : Vec2{};
        const double predicted_aoa =
            std::asin(std::clamp(unit.dot(t.axis), -1.0, 1.0));
        out[2 * i] = t.aoa_scale * huberize(wrap_pi(predicted_aoa - t.aoa_rad),
                                            config_.aoa_huber_rad);
      } else {
        out[2 * i] = 0.0;  // RSSI-only observation: no bearing constraint
      }
      const double predicted_rssi =
          model.p0_dbm - 10.0 * model.exponent * p.log_dist;
      out[2 * i + 1] = t.rssi_scale * (predicted_rssi - t.rssi_dbm);
    }
  }

  /// The LM residual vector at `loc` (2 per AP + 2): the AP residuals
  /// under the path-loss model fitted there, then the soft area-bound
  /// penalties (zero inside the box).
  void fitted_residuals(Vec2 loc, std::span<double> r) {
    measure(loc);
    residuals(fit_path_loss(), r);
    auto overflow = [](double v, double lo, double hi) {
      return v < lo ? lo - v : (v > hi ? v - hi : 0.0);
    };
    const std::size_t n = 2 * terms_.size();
    r[n] = kAreaPenaltyPerM *
           overflow(loc.x, config_.area_min.x, config_.area_max.x);
    r[n + 1] = kAreaPenaltyPerM *
               overflow(loc.y, config_.area_min.y, config_.area_max.y);
  }

 private:
  const LocalizerConfig& config_;
  double d0_m_;
  std::span<ApTerm> terms_;
  std::span<ApPoint> points_;
  double sum_w_ = 0.0;   ///< sum of w
  double sum_wp_ = 0.0;  ///< sum of w * observed RSSI
};

}  // namespace

SpotFiLocalizer::SpotFiLocalizer(LocalizerConfig config) : config_(config) {
  SPOTFI_EXPECTS(config_.area_max.x > config_.area_min.x &&
                     config_.area_max.y > config_.area_min.y,
                 "search area must have positive extent");
  SPOTFI_EXPECTS(config_.min_exponent > 0.0 &&
                     config_.max_exponent > config_.min_exponent,
                 "invalid path-loss exponent bounds");
  SPOTFI_EXPECTS(config_.initial_path_loss.d0_m > 0.0,
                 "path-loss reference distance must be positive");
}

double SpotFiLocalizer::objective(std::span<const ApObservation> observations,
                                  Vec2 location,
                                  const PathLossModel& model) const {
  Workspace& ws = thread_workspace();
  Workspace::Frame frame(ws);
  Eq9Kernel eq9(observations, config_, model.d0_m, ws);
  eq9.measure(location);
  const std::span<double> r = ws.take<double>(2 * eq9.terms().size());
  eq9.residuals(model, r);
  double cost = 0.0;
  for (std::size_t i = 0; i < r.size(); i += 2) {
    cost += r[i] * r[i] + r[i + 1] * r[i + 1];
  }
  return cost;
}

LocationEstimate SpotFiLocalizer::locate(
    std::span<const ApObservation> observations) const {
  return locate(observations, thread_workspace());
}

LocationEstimate SpotFiLocalizer::locate(
    std::span<const ApObservation> observations, Workspace& ws) const {
  Workspace::Frame frame(ws);
  Eq9Kernel eq9(observations, config_, config_.initial_path_loss.d0_m, ws);
  const std::span<const ApTerm> used = eq9.terms();
  SPOTFI_EXPECTS(used.size() >= 2,
                 "need at least two usable AP observations to localize");

  // LM optimizes the location only: the path-loss parameters are fitted
  // in closed form inside every residual evaluation, far better
  // conditioned than carrying them as LM unknowns.
  const std::size_t m = 2 * used.size() + 2;
  const ResidualFn residuals = [&eq9](std::span<const double> p,
                                      std::span<double> r) {
    eq9.fitted_residuals({p[0], p[1]}, r);
  };

  // Multi-start seeds: a coarse grid over the search area, plus the
  // centroid of the AP positions.
  constexpr std::size_t g = kSeedGrid;
  static_assert(g >= 1, "seed grid must be non-empty");
  const std::span<Vec2> seeds = ws.take<Vec2>(g * g + 1);
  for (std::size_t ix = 0; ix < g; ++ix) {
    for (std::size_t iy = 0; iy < g; ++iy) {
      const double fx = (static_cast<double>(ix) + 0.5) / static_cast<double>(g);
      const double fy = (static_cast<double>(iy) + 0.5) / static_cast<double>(g);
      seeds[ix * g + iy] = {config_.area_min.x +
                                fx * (config_.area_max.x - config_.area_min.x),
                            config_.area_min.y +
                                fy * (config_.area_max.y - config_.area_min.y)};
    }
  }
  Vec2 centroid{};
  for (const auto& t : used) centroid += t.position;
  seeds[g * g] = centroid / static_cast<double>(used.size());

  LocationEstimate best;
  best.cost = std::numeric_limits<double>::max();
  bool have_winner = false;
  for (const auto& seed : seeds) {
    ++best.starts_tried;
    const double x0[2] = {seed.x, seed.y};
    const LevMarResult res =
        levenberg_marquardt(residuals, m, x0, {}, ws);
    // A diverged run carries no usable solution, and a NaN cost would
    // silently lose every `<` comparison — either way the start must be
    // rejected explicitly, never allowed to leave `best` default-initialized
    // at the origin as if (0, 0) were an estimate.
    if (res.diverged || !std::isfinite(res.cost) ||
        !std::isfinite(res.x[0]) || !std::isfinite(res.x[1])) {
      ++best.starts_rejected;
      count_numerics(&NumericsCounters::localizer_starts_rejected);
      continue;
    }
    if (res.cost < best.cost) {
      best.cost = res.cost;
      best.position = {res.x[0], res.x[1]};
      best.converged = res.converged;
      have_winner = true;
    }
  }
  if (!have_winner) {
    throw NumericalError(
        "locate: all " + std::to_string(best.starts_tried) +
        " multi-start seeds diverged; observations are numerically unusable");
  }
  eq9.measure(best.position);
  best.path_loss = eq9.fit_path_loss();
  // LM cost is 0.5*||r||^2; report the Eq. 9 value.
  best.cost *= 2.0;
  // Clamp into the search area (an AP-poor geometry can push the optimum
  // slightly outside).
  best.position.x =
      std::clamp(best.position.x, config_.area_min.x, config_.area_max.x);
  best.position.y =
      std::clamp(best.position.y, config_.area_min.y, config_.area_max.y);
  return best;
}

}  // namespace spotfi
