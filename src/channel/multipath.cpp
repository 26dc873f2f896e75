#include "channel/multipath.hpp"

#include <algorithm>
#include <cmath>

#include "common/angles.hpp"
#include "common/constants.hpp"

namespace spotfi {

double ArrayPose::aoa_of(Vec2 source) const {
  const Vec2 d = (source - position).normalized();
  return std::atan2(d.dot(axis_dir()), d.dot(normal_dir()));
}

double ArrayPose::apparent_aoa_of(Vec2 source) const {
  const Vec2 d = (source - position).normalized();
  return std::asin(std::clamp(d.dot(axis_dir()), -1.0, 1.0));
}

namespace {

/// Reference gain at 1 m [dB]; folds in free-space loss at 1 m (~47 dB at
/// 5.3 GHz) and antenna gains, so RSSI comes out in realistic dBm when
/// combined with the TX power.
constexpr double kReferenceGainDb = -47.0;
/// Free-space distance exponent.
constexpr double kPathLossExponent = 2.0;

/// Attenuation phase of a path: carrier phase accumulated over the flight
/// plus any extra interaction phase. Reduced mod 2*pi for conditioning.
double path_phase(double tof_s, double carrier_hz, double extra_rad) {
  return wrap_pi(-2.0 * kPi * carrier_hz * tof_s + extra_rad);
}

void add_path(std::vector<PathComponent>& out, const ArrayPose& pose,
              Vec2 arrival_from, double total_length_m, double gain_db,
              double extra_phase_rad, bool is_direct,
              const MultipathConfig& cfg) {
  PathComponent p;
  p.aoa_rad = pose.aoa_of(arrival_from);
  p.tof_s = total_length_m / kSpeedOfLight;
  p.gain_db = gain_db;
  p.phase_rad = path_phase(p.tof_s, cfg.carrier_hz, extra_phase_rad);
  p.is_direct = is_direct;
  out.push_back(p);
}

double distance_gain_db(double length_m) {
  const double d = std::max(length_m, 0.3);
  return kReferenceGainDb - 10.0 * kPathLossExponent * std::log10(d);
}

}  // namespace

std::vector<PathComponent> enumerate_paths(const FloorPlan& plan,
                                           std::span<const Scatterer> scatterers,
                                           const ArrayPose& pose, Vec2 target,
                                           const MultipathConfig& cfg) {
  SPOTFI_EXPECTS(cfg.max_paths > 0, "max_paths must be positive");
  std::vector<PathComponent> paths;

  // --- Direct path ---
  {
    const double len = distance(target, pose.position);
    const double gain = distance_gain_db(len) -
                        plan.transmission_loss_db(target, pose.position);
    add_path(paths, pose, target, len, gain, 0.0, /*is_direct=*/true, cfg);
  }

  // --- First-order specular reflections off each wall ---
  for (std::size_t w = 0; w < plan.wall_count(); ++w) {
    const Wall& wall = plan.walls()[w];
    const Vec2 image = mirror_across(target, wall.segment);
    // The specular bounce point is where the image->AP ray crosses the wall.
    const Segment image_ray{image, pose.position};
    const auto t = segment_intersection(image_ray, wall.segment, 1e-6);
    if (!t) continue;  // no valid bounce point within the wall extent
    const Vec2 bounce = image_ray.point_at(*t);
    const double len = distance(target, bounce) + distance(bounce, pose.position);
    if (len <= 1e-6) continue;
    // Attenuation: distance loss over the full unfolded length, the bounce
    // loss, and transmission through any *other* walls on both legs.
    double gain = distance_gain_db(len) - wall.material.reflection_loss_db;
    gain -= plan.transmission_loss_db(target, bounce, w);
    gain -= plan.transmission_loss_db(bounce, pose.position, w);
    // Reflection flips the field: pi phase shift at the bounce.
    add_path(paths, pose, bounce, len, gain, kPi, /*is_direct=*/false, cfg);
  }

  // --- Second-order (double-bounce) wall reflections ---
  if (cfg.second_order_reflections) {
    for (std::size_t wa = 0; wa < plan.wall_count(); ++wa) {
      for (std::size_t wb = 0; wb < plan.wall_count(); ++wb) {
        if (wa == wb) continue;
        const Wall& first = plan.walls()[wa];
        const Wall& second = plan.walls()[wb];
        // Unfold: target mirrored across A, then across B.
        const Vec2 image1 = mirror_across(target, first.segment);
        const Vec2 image2 = mirror_across(image1, second.segment);
        // Bounce on B: where the image2 -> AP ray crosses wall B.
        const Segment ray2{image2, pose.position};
        const auto t2 = segment_intersection(ray2, second.segment, 1e-6);
        if (!t2) continue;
        const Vec2 bounce2 = ray2.point_at(*t2);
        // Bounce on A: where the image1 -> bounce2 ray crosses wall A.
        const Segment ray1{image1, bounce2};
        const auto t1 = segment_intersection(ray1, first.segment, 1e-6);
        if (!t1) continue;
        const Vec2 bounce1 = ray1.point_at(*t1);
        const double len = distance(target, bounce1) +
                           distance(bounce1, bounce2) +
                           distance(bounce2, pose.position);
        if (len <= 1e-6) continue;
        double gain = distance_gain_db(len) -
                      first.material.reflection_loss_db -
                      second.material.reflection_loss_db;
        gain -= plan.transmission_loss_db(target, bounce1, wa);
        // Middle leg: grazes both reflecting walls at its endpoints.
        gain -= plan.transmission_loss_db(bounce1, bounce2, wa);
        gain -= plan.transmission_loss_db(bounce2, pose.position, wb);
        // Two pi flips, one per bounce.
        add_path(paths, pose, bounce2, len, gain, 2.0 * kPi,
                 /*is_direct=*/false, cfg);
      }
    }
  }

  // --- Single-bounce scatterer paths ---
  for (const auto& sc : scatterers) {
    const double len =
        distance(target, sc.position) + distance(sc.position, pose.position);
    if (len <= 1e-6) continue;
    double gain = distance_gain_db(len) - sc.scatter_loss_db;
    gain -= plan.transmission_loss_db(target, sc.position);
    gain -= plan.transmission_loss_db(sc.position, pose.position);
    add_path(paths, pose, sc.position, len, gain, 0.5 * kPi,
             /*is_direct=*/false, cfg);
  }

  // Keep the strongest components above the relative floor.
  std::sort(paths.begin(), paths.end(),
            [](const PathComponent& a, const PathComponent& b) {
              return a.gain_db > b.gain_db;
            });
  const double floor_db = paths.front().gain_db - cfg.relative_floor_db;
  std::erase_if(paths, [&](const PathComponent& p) {
    return p.gain_db < floor_db;
  });
  if (paths.size() > cfg.max_paths) paths.resize(cfg.max_paths);
  return paths;
}

}  // namespace spotfi
