// Textbook Eq. 9 localizer: the test oracle that the served
// SpotFiLocalizer (a per-AP term table, one distance and one
// log-distance per AP per evaluation) is held against.
//
// It shares no residual code with the served kernel. Every evaluation
// fits the path-loss model in closed form, recomputing each AP's weight
// with pow and its distance with distance(), and regressing on
// log10(d / d0), the form PathLossModel::rssi_dbm predicts with. Then it
// builds each AP's residual pair from scratch: pow and sqrt for the
// weight, distance() and rssi_dbm() for the RSSI term, and
// ArrayPose::apparent_aoa_of for the bearing. The multi-start seeds and
// the LM solver are the served ones, so results compare bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/angles.hpp"
#include "localize/spotfi_localizer.hpp"

namespace spotfi::oracle {

/// Pseudo-residual realizing a Huber loss: quadratic inside `delta`,
/// linear outside, so that r^2 equals the Huber objective.
inline double huberize(double r, double delta) {
  if (delta <= 0.0) return r;
  const double a = std::abs(r);
  if (a <= delta) return r;
  return std::copysign(std::sqrt(delta * (2.0 * a - delta)), r);
}

/// Residual block for one AP: sqrt(w_i) * [w_th * huber(dtheta), w_p * dp]
/// with w_i = l_i^gamma.
inline void ap_residuals(const ApObservation& obs, Vec2 loc,
                         const PathLossModel& model,
                         const LocalizerConfig& cfg, double* out) {
  const double weight =
      std::pow(std::max(obs.likelihood, 0.0), cfg.likelihood_exponent);
  const double root_w = std::sqrt(weight);
  const double d = distance(loc, obs.pose.position);
  const double predicted_rssi = model.rssi_dbm(d);
  if (obs.has_aoa) {
    const double predicted_aoa = obs.pose.apparent_aoa_of(loc);
    const double dtheta = huberize(wrap_pi(predicted_aoa - obs.direct_aoa_rad),
                                   cfg.aoa_huber_rad);
    out[0] = root_w * kAoaWeight * dtheta;
  } else {
    out[0] = 0.0;
  }
  out[1] = root_w * kRssiWeight * (predicted_rssi - obs.rssi_dbm);
}

/// Weighted least-squares (p0, exponent) at `loc`, exponent clamped to
/// its bounds; rssi = p0 + g * exponent with g = -10 log10(d / d0).
inline PathLossModel fit_path_loss(std::span<const ApObservation> used,
                                   Vec2 loc, const LocalizerConfig& cfg) {
  double s_w = 0.0, s_g = 0.0, s_gg = 0.0, s_r = 0.0, s_gr = 0.0;
  for (const auto& obs : used) {
    const double w =
        std::pow(std::max(obs.likelihood, 0.0), cfg.likelihood_exponent);
    const double d = std::max(distance(loc, obs.pose.position), 0.1);
    const double g = -10.0 * std::log10(d / cfg.initial_path_loss.d0_m);
    s_w += w;
    s_g += w * g;
    s_gg += w * g * g;
    s_r += w * obs.rssi_dbm;
    s_gr += w * g * obs.rssi_dbm;
  }
  PathLossModel model = cfg.initial_path_loss;
  const double denom = s_w * s_gg - s_g * s_g;
  if (std::abs(denom) > 1e-12 && s_w > 0.0) {
    model.exponent = std::clamp((s_w * s_gr - s_g * s_r) / denom,
                                cfg.min_exponent, cfg.max_exponent);
  }
  if (s_w > 0.0) model.p0_dbm = (s_r - model.exponent * s_g) / s_w;
  return model;
}

/// SpotFiLocalizer::locate, textbook form.
inline LocationEstimate locate(std::span<const ApObservation> observations,
                               const LocalizerConfig& cfg) {
  std::vector<ApObservation> used;
  for (const auto& obs : observations) {
    if (obs.likelihood > 0.0) used.push_back(obs);
  }
  SPOTFI_EXPECTS(used.size() >= 2,
                 "need at least two usable AP observations to localize");

  const std::size_t m = 2 * used.size() + 2;
  const ResidualFn residuals = [&](std::span<const double> p,
                                   std::span<double> r) {
    const Vec2 loc{p[0], p[1]};
    const PathLossModel model = fit_path_loss(used, loc, cfg);
    for (std::size_t i = 0; i < used.size(); ++i) {
      ap_residuals(used[i], loc, model, cfg, &r[2 * i]);
    }
    auto overflow = [](double v, double lo, double hi) {
      return v < lo ? lo - v : (v > hi ? v - hi : 0.0);
    };
    r[2 * used.size()] =
        kAreaPenaltyPerM * overflow(loc.x, cfg.area_min.x, cfg.area_max.x);
    r[2 * used.size() + 1] =
        kAreaPenaltyPerM * overflow(loc.y, cfg.area_min.y, cfg.area_max.y);
  };

  std::vector<Vec2> seeds;
  const std::size_t g = kSeedGrid;
  for (std::size_t ix = 0; ix < g; ++ix) {
    for (std::size_t iy = 0; iy < g; ++iy) {
      const double fx = (static_cast<double>(ix) + 0.5) / static_cast<double>(g);
      const double fy = (static_cast<double>(iy) + 0.5) / static_cast<double>(g);
      seeds.push_back({cfg.area_min.x + fx * (cfg.area_max.x - cfg.area_min.x),
                       cfg.area_min.y + fy * (cfg.area_max.y - cfg.area_min.y)});
    }
  }
  Vec2 centroid{};
  for (const auto& obs : used) centroid += obs.pose.position;
  seeds.push_back(centroid / static_cast<double>(used.size()));

  LocationEstimate best;
  best.cost = std::numeric_limits<double>::max();
  bool have_winner = false;
  for (const Vec2 seed : seeds) {
    ++best.starts_tried;
    const LevMarResult res =
        levenberg_marquardt(residuals, m, RVector{seed.x, seed.y});
    if (res.diverged || !std::isfinite(res.cost) ||
        !std::isfinite(res.x[0]) || !std::isfinite(res.x[1])) {
      ++best.starts_rejected;
      continue;
    }
    if (res.cost < best.cost) {
      best.cost = res.cost;
      best.position = {res.x[0], res.x[1]};
      best.converged = res.converged;
      have_winner = true;
    }
  }
  if (!have_winner) throw NumericalError("oracle locate: every start diverged");
  best.path_loss = fit_path_loss(used, best.position, cfg);
  best.cost *= 2.0;
  best.position.x = std::clamp(best.position.x, cfg.area_min.x, cfg.area_max.x);
  best.position.y = std::clamp(best.position.y, cfg.area_min.y, cfg.area_max.y);
  return best;
}

}  // namespace spotfi::oracle
