// Baseline localizers the paper compares against (or builds on):
//
//  * AoaTriangulator — weighted least-squares intersection of the bearing
//    rays defined by each AP's direct-path AoA; the classic AoA-only
//    localization primitive.
//  * RssiTrilaterator — RADAR-style ranging from RSSI through a known
//    path-loss model (Sec. 2, "RSSI based approaches").
//  * ArrayTrackLocalizer — the paper's practical ArrayTrack/Phaser
//    comparison: each AP contributes its (packet-averaged) MUSIC-AoA
//    pseudospectrum; the location maximizing the product of the spectra
//    evaluated at the bearing towards the candidate is returned
//    (ArrayTrack Sec. 5's spectrum synthesis, on 3 antennas).
#pragma once

#include <vector>

#include "localize/observation.hpp"
#include "localize/pathloss.hpp"
#include "music/estimators.hpp"

namespace spotfi {

/// Weighted least-squares intersection of the APs' bearing lines.
/// Requires >= 2 observations with non-collinear bearings; throws
/// NumericalError when the geometry is degenerate.
[[nodiscard]] Vec2 triangulate_aoa(std::span<const ApObservation> observations);

struct RssiTrilaterationConfig {
  PathLossModel path_loss{};
};

/// Ranges each AP via the path-loss model and solves for the position
/// minimizing the range residuals. Requires >= 3 observations.
[[nodiscard]] Vec2 trilaterate_rssi(
    std::span<const ApObservation> observations,
    const RssiTrilaterationConfig& config = {});

/// One AP's contribution to ArrayTrack-style localization.
struct ApSpectrum {
  ArrayPose pose;
  AoaSpectrum spectrum;
};

struct ArrayTrackConfig {
  Vec2 area_min{0.0, 0.0};
  Vec2 area_max{20.0, 20.0};
  /// Coarse search grid step [m].
  double grid_step_m = 0.25;
};

/// Location maximizing sum_i log(spectrum_i(bearing_i(location))).
[[nodiscard]] Vec2 arraytrack_locate(std::span<const ApSpectrum> spectra,
                                     const ArrayTrackConfig& config = {});

/// Linear interpolation of a pseudospectrum at an arbitrary angle;
/// angles outside the grid clamp to the boundary value.
[[nodiscard]] double spectrum_at(const AoaSpectrum& spectrum, double aoa_rad);

}  // namespace spotfi
