// The two AoA estimators the paper evaluates.
//
// JointMusicEstimator — SpotFi's super-resolution algorithm (Sec. 3.1.2):
// smoothed CSI matrix -> noise subspace -> 2-D MUSIC pseudospectrum over
// (AoA, ToF) -> peaks = multipath components. The joint steering vector
// factors as ant(theta) (x) sub(tau), so the MUSIC denominator at
// (theta, tau) is a quadratic form in ant(theta) with a small per-tau
// Gram matrix of the noise subspace (ant_len x ant_len, 2 x 2 here).
// Since |Omega(tau)| = 1, each entry of that matrix is a trigonometric
// polynomial in Omega(tau) with 2 sub_len - 1 terms (29 here); the sweep
// builds the coefficients once per packet and evaluates them once per
// ToF column. A grid point then costs ant_len^2 real multiply-adds
// whatever the noise dimension. The per-packet stage sweeps only the
// ToF columns whose Gram bound lets a cell of them reach the peak floor
// (about a dozen of the 320 on the deployments' packets); the value API
// sweeps them all.
//
// MusicAoaEstimator — the classic antenna-only MUSIC (Sec. 3.1.1) used by
// the paper's practical ArrayTrack/Phaser baseline: the 3-antenna array
// with subcarriers as snapshots. With only 3 sensors it cannot resolve
// more than 2 paths, which is exactly the failure mode SpotFi fixes. Its
// spectrum is the joint sweep's one-column case (a length-1 subcarrier
// axis).
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "common/constants.hpp"
#include "csi/smoothing.hpp"
#include "music/peaks.hpp"
#include "music/steering_cache.hpp"
#include "music/subspace.hpp"

namespace spotfi {

/// One estimated multipath component.
struct PathEstimate {
  double aoa_rad = 0.0;
  double tof_s = 0.0;   ///< sanitized ToF — offset by the (removed) STO
  double power = 0.0;   ///< MUSIC pseudospectrum height at the peak
};

/// 2-D pseudospectrum on the (AoA, ToF) grid; values[i][j] corresponds to
/// aoa_grid[i], tof_grid[j].
struct AoaTofSpectrum {
  RVector aoa_grid_rad;
  RVector tof_grid_s;
  RMatrix values;
};

/// One packet's pseudospectrum as stage_spectrum sweeps it: arena views
/// that live until the enclosing frame closes.
struct SweptSpectrum {
  /// The AoA x ToF grid by ToF column. A column is null when its bound
  /// proved that no cell of it reaches the peak floor.
  ColumnGrid grid;
  /// Per ToF column, an upper bound on every cell of it.
  std::span<const double> bound;
};

/// 1-D pseudospectrum on an AoA grid.
struct AoaSpectrum {
  RVector aoa_grid_rad;
  RVector values;
};

struct JointMusicConfig {
  double aoa_min_rad = -kPi / 2.0;
  double aoa_max_rad = kPi / 2.0;
  double aoa_step_rad = kPi / 180.0;  ///< 1 degree
  /// ToF grid; when min/max are NaN the full unambiguous period
  /// [-T/2, T/2) with T = 1/f_delta is used and the axis treated circular.
  double tof_min_s = std::numeric_limits<double>::quiet_NaN();
  double tof_max_s = std::numeric_limits<double>::quiet_NaN();
  double tof_step_s = 2.5e-9;
  SmoothingConfig smoothing;
  SubspaceConfig subspace;
  /// Keep at most this many spectrum peaks. Peaks on the first or last
  /// AoA grid row never count: steering vectors compress near endfire
  /// and MUSIC piles spurious energy onto the +-90 deg boundary.
  std::size_t max_paths = 8;
  /// Drop peaks below this fraction of the strongest peak. MUSIC ridges
  /// produce low sidelobe peaks along the ToF axis; an 8% floor keeps
  /// real paths (within ~11 dB of the strongest) and rejects sidelobes.
  double min_relative_peak = 0.08;
  /// Refine peak locations by parabolic interpolation.
  bool refine_peaks = true;
};

class JointMusicEstimator {
 public:
  JointMusicEstimator(LinkConfig link, JointMusicConfig config = {});

  /// Full pipeline on one packet's CSI: smooth -> subspace -> spectrum ->
  /// peaks. CSI must be antennas x subcarriers per the link config.
  [[nodiscard]] std::vector<PathEstimate> estimate(const CMatrix& csi) const;

  /// The pseudospectrum (for inspection / the spectrum_explorer example).
  [[nodiscard]] AoaTofSpectrum spectrum(const CMatrix& csi) const;

  // -- the two stage entry points: estimate() and ApProcessor's
  // per-packet step compose exactly these, the latter metered as the
  // kSubspace and kSpectrum phases. All scratch comes out of the
  // caller's arena.

  /// Shape check, smoothed-CSI construction (Fig. 4) and noise-subspace
  /// split (Algorithm 2, line 5) of one packet's CSI. The returned views
  /// live until the enclosing frame closes.
  [[nodiscard]] SubspacesRef stage_subspace(ConstCMatrixView csi,
                                            Workspace& ws) const;
  /// Pseudospectrum sweep + peak extraction: writes at most
  /// config().max_paths estimates into `out`, which must hold at least
  /// that many, and returns the count. They equal what the full grid of
  /// spectrum() yields under the same peak search and refinement, bit
  /// for bit. The swept columns and peak list are arena scratch.
  [[nodiscard]] std::size_t stage_spectrum(const SubspacesRef& sub,
                                           Workspace& ws,
                                           std::span<PathEstimate> out) const;
  /// stage_spectrum's sweep alone (tests and benches): every ToF column
  /// whose bound reaches max(0, min(min_relative_peak, 1)) times the
  /// largest cell swept, the others null. Swept cells equal spectrum()'s.
  [[nodiscard]] SweptSpectrum sweep_spectrum(const SubspacesRef& sub,
                                             Workspace& ws) const;

  [[nodiscard]] const JointMusicConfig& config() const { return config_; }
  [[nodiscard]] const LinkConfig& link() const { return link_; }
  [[nodiscard]] const RVector& aoa_grid() const { return aoa_axis_->grid; }
  [[nodiscard]] const RVector& tof_grid() const { return tof_axis_->grid; }
  /// True when the ToF grid spans the full unambiguous period (grid wraps).
  [[nodiscard]] bool tof_axis_wraps() const { return tof_wraps_; }

 private:
  LinkConfig link_;
  JointMusicConfig config_;
  double tof_min_s_ = 0.0;
  double tof_max_s_ = 0.0;
  bool tof_wraps_ = false;
  // The grids are fixed at construction, so the steering vectors the
  // spectrum sweep needs are too. Precomputing them (flat,
  // row-per-grid-point tables) turns the per-packet sweep into pure
  // inner products — no trig/cexp inside estimate() — and makes the
  // estimator safely shareable across threads (all state is immutable
  // after construction). The tables are interned in the process-wide
  // SteeringTableCache, so the thousands of estimators a streaming
  // deployment constructs (per AP, per round, per session) share one
  // copy instead of recomputing ~80 KiB of trig each.
  std::shared_ptr<const SteeringAxisTable> aoa_axis_;
  std::shared_ptr<const SteeringAxisTable> tof_axis_;
};

struct MusicAoaConfig {
  double aoa_min_rad = -kPi / 2.0;
  double aoa_max_rad = kPi / 2.0;
  double aoa_step_rad = kPi / 180.0;
  SubspaceConfig subspace;
  /// Spectrum peaks kept, AoA edge rows excluded as in JointMusicConfig.
  std::size_t max_paths = 3;
  double min_relative_peak = 0.01;
  bool refine_peaks = true;
};

class MusicAoaEstimator {
 public:
  MusicAoaEstimator(LinkConfig link, MusicAoaConfig config = {});

  [[nodiscard]] std::vector<PathEstimate> estimate(const CMatrix& csi) const;
  [[nodiscard]] AoaSpectrum spectrum(const CMatrix& csi) const;

  [[nodiscard]] const MusicAoaConfig& config() const { return config_; }
  [[nodiscard]] const RVector& aoa_grid() const { return aoa_axis_->grid; }

 private:
  LinkConfig link_;
  MusicAoaConfig config_;
  /// Cached grid and full-array steering table (see JointMusicEstimator),
  /// interned in the process-wide SteeringTableCache like the joint
  /// estimator's axes.
  std::shared_ptr<const SteeringAxisTable> aoa_axis_;
};

}  // namespace spotfi
