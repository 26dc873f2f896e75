#include "localize/gdop.hpp"

#include <cmath>

#include "linalg/matrix.hpp"
#include "linalg/numerics.hpp"

namespace spotfi {

Expected<GdopResult, std::string> try_bearing_gdop(
    std::span<const ArrayPose> aps, Vec2 point, double sigma_aoa_rad) {
  SPOTFI_EXPECTS(aps.size() >= 2, "GDOP needs at least two APs");
  SPOTFI_EXPECTS(sigma_aoa_rad > 0.0, "AoA sigma must be positive");

  // Each bearing i measures the direction to the target; a small AoA
  // error sigma displaces the implied position by d_i * sigma along the
  // unit vector u_perp_i perpendicular to the line of sight. Fisher
  // information: sum_i u_perp_i u_perp_i^T / (d_i * sigma)^2.
  RMatrix fim(2, 2);
  for (const auto& ap : aps) {
    const Vec2 los = point - ap.position;
    const double d = los.norm();
    if (d < 1e-6) continue;  // on top of an AP: that AP adds nothing
    const Vec2 u_perp = (los / d).perp();
    const double w = 1.0 / ((d * sigma_aoa_rad) * (d * sigma_aoa_rad));
    fim(0, 0) += w * u_perp.x * u_perp.x;
    fim(0, 1) += w * u_perp.x * u_perp.y;
    fim(1, 0) += w * u_perp.x * u_perp.y;
    fim(1, 1) += w * u_perp.y * u_perp.y;
  }

  const double det = fim(0, 0) * fim(1, 1) - fim(0, 1) * fim(1, 0);
  if (!(det > 1e-12 * (1.0 + fim.max_abs() * fim.max_abs()))) {
    // !(>) also rejects a NaN determinant from non-finite poses.
    count_numerics(&NumericsCounters::gdop_degenerate);
    return std::string(
        "bearing_gdop: degenerate geometry (all bearings parallel — "
        "APs collinear with the query point, or non-finite input)");
  }
  // The squared ellipse axes are the eigenvalues of the covariance
  // FIM^-1, the reciprocals of the FIM's. The FIM's larger eigenvalue
  // mu = (f00 + f11)/2 + hypot((f00 - f11)/2, f01) has no cancellation,
  // and its smaller one is det/mu, so minor^2 = 1/mu and major^2 = mu/det.
  const double mu = 0.5 * (fim(0, 0) + fim(1, 1)) +
                    std::hypot(0.5 * (fim(0, 0) - fim(1, 1)), fim(0, 1));
  GdopResult result;
  result.minor_m = std::sqrt(1.0 / mu);
  result.major_m = std::sqrt(mu / det);
  result.drms_m = std::hypot(result.major_m, result.minor_m);
  return result;
}

GdopResult bearing_gdop(std::span<const ArrayPose> aps, Vec2 point,
                        double sigma_aoa_rad) {
  Expected<GdopResult, std::string> r =
      try_bearing_gdop(aps, point, sigma_aoa_rad);
  if (!r) throw NumericalError(r.error());
  return std::move(*r);
}

}  // namespace spotfi
