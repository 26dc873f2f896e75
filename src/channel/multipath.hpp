// Multipath enumeration: the geometric ray model that stands in for the
// paper's physical testbed.
//
// For a target transmitting to an AP the model produces the set of
// significant propagation paths — the (possibly obstructed) direct path,
// first-order specular reflections off walls, and single-bounce scatterer
// paths (furniture, metal cabinets, people). Each path carries exactly the
// parameters SpotFi's model in Sec. 3.1 assigns to it: an AoA at the AP
// array, a ToF, and a complex attenuation whose phase is common to all
// subcarriers. Indoor environments typically show 6-8 significant
// reflectors (paper Sec. 3.1); the model keeps the strongest
// `max_paths` components above a relative power floor.
#pragma once

#include <vector>

#include "geom/floorplan.hpp"
#include "linalg/matrix.hpp"

namespace spotfi {

/// AP antenna-array placement: position of the first element and the
/// direction of the array broadside (normal). AoA is measured from this
/// normal, positive toward the counter-clockwise array axis, in
/// (-pi/2, pi/2) for sources in front of the array.
struct ArrayPose {
  Vec2 position;
  double normal_rad = 0.0;

  [[nodiscard]] Vec2 normal_dir() const {
    return {std::cos(normal_rad), std::sin(normal_rad)};
  }
  [[nodiscard]] Vec2 axis_dir() const { return normal_dir().perp(); }

  /// AoA of a signal arriving at the array from `source` along a straight
  /// ray, measured w.r.t. the array normal [rad]. Full range (-pi, pi]:
  /// sources behind the array report |aoa| > pi/2.
  [[nodiscard]] double aoa_of(Vec2 source) const;

  /// The AoA a uniform linear array can actually observe: a ULA only
  /// senses sin(aoa), so a source behind the array aliases onto its
  /// front-half mirror image. Always in [-pi/2, pi/2]. This is the value
  /// estimators report and the value localization must predict.
  [[nodiscard]] double apparent_aoa_of(Vec2 source) const;
};

/// One propagation path from target to AP.
struct PathComponent {
  double aoa_rad = 0.0;   ///< angle of arrival at the AP array
  double tof_s = 0.0;     ///< true time of flight (no STO)
  double gain_db = 0.0;   ///< power gain relative to 1 m free space
  double phase_rad = 0.0; ///< subcarrier-independent attenuation phase
  bool is_direct = false;

  [[nodiscard]] cplx complex_gain() const {
    const double amp = std::pow(10.0, gain_db / 20.0);
    return std::polar(amp, phase_rad);
  }
};

/// A point scatterer that relays a single-bounce path with extra loss.
struct Scatterer {
  Vec2 position;
  double scatter_loss_db = 15.0;
};

struct MultipathConfig {
  /// Paths weaker than the strongest by more than this are dropped.
  double relative_floor_db = 35.0;
  /// Keep at most this many strongest paths.
  std::size_t max_paths = 8;
  /// Carrier used for the attenuation phase [Hz].
  double carrier_hz = 5.32e9;
  /// Also enumerate second-order (double-bounce) wall reflections.
  /// Usually below the relative floor indoors, but significant in bare
  /// corridors and metal-rich rooms; off by default.
  bool second_order_reflections = false;
};

/// Enumerates the multipath between `target` and the AP at `pose` within
/// `plan`, strongest first. The direct path (if above the floor) is
/// flagged `is_direct`.
[[nodiscard]] std::vector<PathComponent> enumerate_paths(
    const FloorPlan& plan, std::span<const Scatterer> scatterers,
    const ArrayPose& pose, Vec2 target, const MultipathConfig& config = {});

}  // namespace spotfi
