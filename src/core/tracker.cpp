#include "core/tracker.hpp"

#include <cmath>

#include "common/error.hpp"

namespace spotfi {
namespace {

/// Initial velocity uncertainty [m/s].
constexpr double kInitialVelocitySigma = 1.5;

}  // namespace

LocationTracker::LocationTracker(TrackerConfig config) : config_(config) {
  SPOTFI_EXPECTS(config_.acceleration_sigma > 0.0 &&
                     config_.measurement_sigma > 0.0,
                 "tracker noise parameters must be positive");
}

Vec2 LocationTracker::position() const {
  SPOTFI_EXPECTS(initialized_, "tracker has no fixes yet");
  return {state_[0], state_[1]};
}

Vec2 LocationTracker::velocity() const {
  SPOTFI_EXPECTS(initialized_, "tracker has no fixes yet");
  return {state_[2], state_[3]};
}

void LocationTracker::predict_in_place(double dt) {
  // State transition F = [I, dt*I; 0, I]; white-acceleration process
  // noise Q (discretized).
  state_[0] += dt * state_[2];
  state_[1] += dt * state_[3];

  RMatrix f = RMatrix::identity(4);
  f(0, 2) = f(1, 3) = dt;
  cov_ = f * cov_ * f.transpose();

  const double q = config_.acceleration_sigma * config_.acceleration_sigma;
  const double dt2 = dt * dt;
  const double dt3 = dt2 * dt;
  const double dt4 = dt3 * dt;
  for (int axis = 0; axis < 2; ++axis) {
    const std::size_t p = axis;      // position index
    const std::size_t v = axis + 2;  // velocity index
    cov_(p, p) += q * dt4 / 4.0;
    cov_(p, v) += q * dt3 / 2.0;
    cov_(v, p) += q * dt3 / 2.0;
    cov_(v, v) += q * dt2;
  }
}

Vec2 LocationTracker::update(Vec2 fix, double t_s) {
  last_rejected_ = false;
  if (!initialized_) {
    initialized_ = true;
    last_t_ = t_s;
    state_ = {fix.x, fix.y, 0.0, 0.0};
    cov_ = RMatrix(4, 4);
    const double r = config_.measurement_sigma * config_.measurement_sigma;
    cov_(0, 0) = cov_(1, 1) = r;
    cov_(2, 2) = cov_(3, 3) = kInitialVelocitySigma * kInitialVelocitySigma;
    return fix;
  }
  SPOTFI_EXPECTS(t_s >= last_t_, "fixes must arrive in time order");
  predict_in_place(t_s - last_t_);
  last_t_ = t_s;

  // Measurement H = [I 0]; innovation and its covariance (2x2).
  const double r = config_.measurement_sigma * config_.measurement_sigma;
  const double y0 = fix.x - state_[0];
  const double y1 = fix.y - state_[1];
  const double s00 = cov_(0, 0) + r;
  const double s01 = cov_(0, 1);
  const double s11 = cov_(1, 1) + r;
  const double det = s00 * s11 - s01 * s01;
  SPOTFI_ASSERT(det > 0.0, "innovation covariance not positive definite");
  // Normalized innovation squared for the gate.
  const double nis =
      (y0 * (s11 * y0 - s01 * y1) + y1 * (s00 * y1 - s01 * y0)) / det;
  if (config_.gate_nis > 0.0 && nis > config_.gate_nis) {
    last_rejected_ = true;
    return position();
  }

  // Kalman gain K = P H^T S^-1 (4x2).
  const double inv00 = s11 / det;
  const double inv01 = -s01 / det;
  const double inv11 = s00 / det;
  double k[4][2];
  for (std::size_t i = 0; i < 4; ++i) {
    const double p0 = cov_(i, 0);
    const double p1 = cov_(i, 1);
    k[i][0] = p0 * inv00 + p1 * inv01;
    k[i][1] = p0 * inv01 + p1 * inv11;
  }
  for (std::size_t i = 0; i < 4; ++i) {
    state_[i] += k[i][0] * y0 + k[i][1] * y1;
  }
  // Covariance update P <- (I - K H) P.
  RMatrix kh(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    kh(i, 0) = k[i][0];
    kh(i, 1) = k[i][1];
  }
  cov_ = (RMatrix::identity(4) - kh) * cov_;
  return position();
}

TrackerState LocationTracker::export_state() const {
  TrackerState out;
  out.initialized = initialized_;
  out.last_rejected = last_rejected_;
  out.last_t = last_t_;
  for (std::size_t i = 0; i < 4; ++i) out.state[i] = state_[i];
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) out.cov[i * 4 + j] = cov_(i, j);
  }
  return out;
}

void LocationTracker::restore_state(const TrackerState& state) {
  initialized_ = state.initialized;
  last_rejected_ = state.last_rejected;
  last_t_ = state.last_t;
  state_.assign(state.state.begin(), state.state.end());
  cov_ = RMatrix(4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) cov_(i, j) = state.cov[i * 4 + j];
  }
}

Vec2 LocationTracker::predict(double t_s) const {
  SPOTFI_EXPECTS(initialized_, "tracker has no fixes yet");
  SPOTFI_EXPECTS(t_s >= last_t_, "cannot predict into the past");
  const double dt = t_s - last_t_;
  return {state_[0] + dt * state_[2], state_[1] + dt * state_[3]};
}

}  // namespace spotfi
