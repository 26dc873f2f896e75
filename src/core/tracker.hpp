// Constant-velocity Kalman tracker over successive location fixes.
//
// The paper motivates indoor navigation (corridors, Sec. 4.3.3); a moving
// target produces a stream of per-group fixes whose independent errors a
// tracker can average down. This is a standard 4-state (x, y, vx, vy)
// Kalman filter with position-only measurements and a simple innovation
// gate that rejects the occasional gross SpotFi outlier (a wrong
// direct-path pick at several APs).
#pragma once

#include <array>
#include <optional>

#include "geom/vec2.hpp"
#include "linalg/matrix.hpp"

namespace spotfi {

struct TrackerConfig {
  /// Process noise: white acceleration density [m/s^2].
  double acceleration_sigma = 0.8;
  /// Measurement noise: per-axis fix standard deviation [m].
  double measurement_sigma = 0.8;
  /// Reject fixes whose normalized innovation squared exceeds this
  /// (chi-square with 2 dof; 13.8 = 0.1% tail). 0 disables gating.
  double gate_nis = 13.8;
};

/// Complete filter state for durability snapshots. export_state() /
/// restore_state() round-trip bit-exactly, so a restored tracker
/// continues the track the original would have produced.
struct TrackerState {
  bool initialized = false;
  bool last_rejected = false;
  double last_t = 0.0;
  std::array<double, 4> state{};  ///< x, y, vx, vy
  std::array<double, 16> cov{};   ///< row-major 4x4 covariance
};

class LocationTracker {
 public:
  explicit LocationTracker(TrackerConfig config = {});

  /// Feeds one fix taken at time `t_s`. Returns the filtered position.
  /// The first fix initializes the track. Out-of-order timestamps throw.
  Vec2 update(Vec2 fix, double t_s);

  /// Position extrapolated to time `t_s` (>= last update time).
  [[nodiscard]] Vec2 predict(double t_s) const;

  [[nodiscard]] bool initialized() const { return initialized_; }
  [[nodiscard]] Vec2 position() const;
  [[nodiscard]] Vec2 velocity() const;
  /// Whether the previous update() call rejected its fix via the gate.
  [[nodiscard]] bool last_fix_rejected() const { return last_rejected_; }

  /// Snapshot/restore of the full filter state (durability). The config
  /// is not part of the state; restore into a same-configured tracker.
  [[nodiscard]] TrackerState export_state() const;
  void restore_state(const TrackerState& state);

 private:
  void predict_in_place(double dt);

  TrackerConfig config_;
  bool initialized_ = false;
  bool last_rejected_ = false;
  double last_t_ = 0.0;
  RVector state_{0.0, 0.0, 0.0, 0.0};  ///< x, y, vx, vy
  RMatrix cov_{4, 4};
};

}  // namespace spotfi
