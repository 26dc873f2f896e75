// Stage telemetry for SpotFi's per-AP estimation (DESIGN.md §15).
//
// ApProcessor runs one packet group as a fixed sequence of kernels:
// sanitize, the per-packet estimate stage (MUSIC or ESPRIT,
// pipeline/stages.hpp), then cluster and direct-path selection; the
// server then fuses the APs (localize). Each step runs under a
// StageMeter, which attributes wall time and arena growth to one
// StagePhase. MUSIC's two phases are the estimator's stage_subspace and
// stage_spectrum, so the eigensolver (Householder + implicit QL) and the
// Kronecker-Gram sweep each land in, and are metered in, one place.
//
// Contract (DESIGN.md §15):
//  - A step allocates its OUTPUT into the caller's open arena frame
//    (ctx.ws) and never opens a frame around it — outputs must outlive
//    the call. Internal scratch may use nested frames freely.
//  - Telemetry is opt-in: when ctx.breakdown is null a meter performs
//    no clock reads and no accounting — the hot path stays untouched.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/workspace.hpp"

namespace spotfi {

/// Telemetry buckets for the stage breakdown. Smoothing is folded into
/// kSubspace (the two always run back-to-back and smoothing is ~free
/// next to the eigendecomposition), matching the eigensolver-vs-sweep
/// cost split (ROADMAP items 2/3) the breakdown exists to measure.
enum class StagePhase : std::uint8_t {
  kSanitize = 0,
  kSubspace,
  kSpectrum,
  kCluster,
  kLocalize,
};

inline constexpr std::size_t kStagePhaseCount = 5;

[[nodiscard]] const char* to_string(StagePhase phase);

/// Per-phase wall time and arena footprint of one unit of work (a
/// packet, a group, a round — whatever the producer metered).
struct StageBreakdown {
  std::array<double, kStagePhaseCount> seconds{};
  std::array<std::size_t, kStagePhaseCount> workspace_peak_bytes{};

  /// Folds another breakdown in: times accumulate; workspace peaks take
  /// the max, because sibling units (packets in a group, APs in a
  /// round) reuse the same arenas rather than holding them at once.
  void merge(const StageBreakdown& other) {
    for (std::size_t i = 0; i < kStagePhaseCount; ++i) {
      seconds[i] += other.seconds[i];
      workspace_peak_bytes[i] =
          workspace_peak_bytes[i] > other.workspace_peak_bytes[i]
              ? workspace_peak_bytes[i]
              : other.workspace_peak_bytes[i];
    }
  }

  [[nodiscard]] bool any() const {
    for (std::size_t i = 0; i < kStagePhaseCount; ++i) {
      if (seconds[i] != 0.0 || workspace_peak_bytes[i] != 0) return true;
    }
    return false;
  }

  [[nodiscard]] double total_seconds() const {
    double t = 0.0;
    for (const double s : seconds) t += s;
    return t;
  }
};

/// Everything a metered step may touch beyond its typed input. The
/// caller owns every pointee; a step never stores the context.
struct StageContext {
  /// Arena the step's output is allocated from.
  Workspace* ws = nullptr;
  /// Telemetry sink; null disables all metering (and its clock reads).
  StageBreakdown* breakdown = nullptr;
  /// The innermost frame enclosing the step's outputs, used to meter
  /// per-phase arena peaks. Only consulted when breakdown is set.
  const Workspace::Frame* frame = nullptr;
};

/// Monotonic time for stage metering. Deliberately NOT the session
/// Clock: sessions run on FakeClock in tests, where every now_s() read
/// advances time — telemetry reads would perturb deadline logic.
[[nodiscard]] double stage_now_s();

/// RAII meter around one step: accumulates wall time and the enclosing
/// frame's peak growth into breakdown[phase]. A no-op (no clock reads)
/// when ctx carries no breakdown sink.
///
/// The peak delta is valid at stage boundaries: any nested frame a
/// kernel opened has closed by then, folding its peak into the
/// enclosing frame (common/workspace.hpp), so the delta captures the
/// stage's full footprint including scratch.
class StageMeter {
 public:
  StageMeter(const StageContext& ctx, StagePhase phase)
      : breakdown_(ctx.breakdown), frame_(ctx.frame), phase_(phase) {
    if (breakdown_ == nullptr) return;
    t0_ = stage_now_s();
    peak0_ = frame_ != nullptr ? frame_->peak_bytes() : 0;
  }

  StageMeter(const StageMeter&) = delete;
  StageMeter& operator=(const StageMeter&) = delete;

  ~StageMeter() {
    if (breakdown_ == nullptr) return;
    const auto i = static_cast<std::size_t>(phase_);
    breakdown_->seconds[i] += stage_now_s() - t0_;
    if (frame_ != nullptr) {
      const std::size_t peak = frame_->peak_bytes();
      breakdown_->workspace_peak_bytes[i] += peak > peak0_ ? peak - peak0_ : 0;
    }
  }

 private:
  StageBreakdown* breakdown_;
  const Workspace::Frame* frame_;
  StagePhase phase_;
  double t0_ = 0.0;
  std::size_t peak0_ = 0;
};

}  // namespace spotfi
