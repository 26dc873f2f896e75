// Overload policy for the multi-tenant session layer (DESIGN.md §12):
// admission verdicts, the load-shedding ladder, and per-round deadline
// planning.
//
// The principle: overload is a first-class, *gracefully degraded*
// condition, never an unbounded queue. The shedding ladder IS the
// per-AP estimator fallback chain (ApStage: full MUSIC -> relaxed MUSIC
// -> ESPRIT -> RSSI-only). A round planned at a rung passes it to every
// AP as a floor on its configured entry stage, so shedding only ever
// removes work. Two signals pick the rung:
//
//  * Queue depth — the per-session ingest queue's occupancy picks the
//    rung a session is currently entitled to. A backlogged session
//    trades resolution for drain rate before it trades availability.
//  * Deadline slack — each round carries a wall-clock compute budget.
//    A round that cannot meet its deadline at full fidelity (per the
//    measured cost model) is degraded or rejected up front, never run
//    late and discarded after the fact.
//
// Every decision is an explicit verdict (Accepted | Degraded{level} |
// Shed{reason}) so callers and telemetry can account for exactly which
// rounds ran below full fidelity and why.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/ap_processor.hpp"

namespace spotfi {

/// Rungs of the shedding ladder: ApStage::kPrimary through kRssiOnly
/// (kFailed is an outcome, not a rung). Sizes the per-rung cost model
/// and occupancy thresholds.
inline constexpr std::size_t kRungCount =
    static_cast<std::size_t>(ApStage::kRssiOnly) + 1;

/// Outcome of one admission decision (packet offer or round plan).
/// Reasons are static strings so the accepted path allocates nothing.
struct AdmissionVerdict {
  enum class Kind : std::uint8_t {
    kAccepted,  ///< admitted at full fidelity
    kDegraded,  ///< admitted; the session is entitled to `level` only
    kShed,      ///< rejected outright — `reason` says why
  };
  Kind kind = Kind::kAccepted;
  /// Ladder rung the session is entitled to (kPrimary when accepted;
  /// meaningful for kDegraded; the rung that was overloaded for kShed).
  ApStage level = ApStage::kPrimary;
  /// Why the work was shed or degraded ("" when accepted).
  const char* reason = "";

  /// True when the packet entered the queue (accepted or degraded).
  [[nodiscard]] bool admitted() const { return kind != Kind::kShed; }
};

struct OverloadConfig {
  /// Per-session ingest queue slots (the bounded-memory cap; the queue
  /// high-water mark can never exceed it).
  std::size_t queue_capacity = 64;
  /// Occupancy fractions at which the ladder drops one fidelity rung:
  /// depth >= fraction * capacity selects the rung. Must be
  /// non-decreasing in [0, 1].
  double degrade_coarse_at = 0.50;
  double degrade_esprit_at = 0.75;
  double degrade_rssi_at = 0.90;
  /// Wall-clock compute budget for one localization round [s]; 0
  /// disables deadline planning (occupancy alone drives the ladder).
  double round_deadline_s = 0.0;
  /// Initial per-round cost estimates [s], indexed by rung. Zero
  /// means "assume free until measured" — set these in tests (with a
  /// FakeClock) to make deadline decisions deterministic.
  std::array<double, kRungCount> seed_cost_s{};
};

/// EWMA state of a RoundCostModel, exportable for durability snapshots.
/// The EWMA weight is a constant of overload.cpp, not part of the state.
struct RoundCostState {
  std::array<double, kRungCount> cost_s{};
  std::array<bool, kRungCount> seen{};
};

/// EWMA of measured round cost per planned rung. Feeds deadline
/// planning: "can a full-fidelity round still finish in time, or must
/// this one enter the chain lower?" Single-threaded by contract (one
/// model per session, touched only by the pump).
class RoundCostModel {
 public:
  explicit RoundCostModel(const OverloadConfig& config);

  /// Folds a measured round duration at `level` into the estimate.
  void observe(ApStage level, double duration_s);

  /// Current estimate for one round at `level` [s].
  [[nodiscard]] double estimate_s(ApStage level) const {
    return cost_s_[static_cast<std::size_t>(level)];
  }

  /// Snapshot/restore of the learned estimates (durability).
  [[nodiscard]] RoundCostState export_state() const {
    return RoundCostState{cost_s_, seen_};
  }
  void restore_state(const RoundCostState& state) {
    cost_s_ = state.cost_s;
    seen_ = state.seen;
  }

 private:
  std::array<double, kRungCount> cost_s_;
  std::array<bool, kRungCount> seen_{};
};

/// What to do with one about-to-fire round.
struct RoundPlan {
  /// False: drop the round outright (its packet group is consumed but
  /// never estimated) — the shed of last resort.
  bool run = true;
  /// The rung: a floor on every AP's configured entry stage.
  ApStage level = ApStage::kPrimary;
  /// True when the deadline (not queue occupancy) forced the outcome.
  bool deadline_limited = false;
  /// Why the round was degraded or dropped ("" for a full-fidelity run).
  const char* reason = "";
};

/// Pure decision logic — no state beyond the config, so one policy
/// instance serves every session and may be consulted from any thread.
class OverloadPolicy {
 public:
  explicit OverloadPolicy(OverloadConfig config);

  [[nodiscard]] const OverloadConfig& config() const { return config_; }

  /// The ladder rung queue occupancy `depth` demands.
  [[nodiscard]] ApStage level_for_depth(std::size_t depth) const;

  /// Packet admission: `depth` is the queue occupancy observed before
  /// the push. Never returns kShed — a failed try_push is the shed
  /// signal (the queue itself is the arbiter of "full"); this grades the
  /// fidelity entitlement the packet is admitted under.
  [[nodiscard]] AdmissionVerdict admit(std::size_t depth) const;

  /// Plans an about-to-fire round: starts at the occupancy rung, then
  /// walks down the ladder until the cost model says the deadline fits.
  /// When even an RSSI-only round cannot fit, the round is dropped
  /// (run = false) — rejected up front rather than finished late.
  [[nodiscard]] RoundPlan plan_round(std::size_t depth,
                                     const RoundCostModel& cost) const;

 private:
  OverloadConfig config_;
  /// Occupancy thresholds in packets, resolved from the fractions.
  std::array<std::size_t, kRungCount> rung_depth_;
};

}  // namespace spotfi
