#include "core/overload.hpp"

#include <algorithm>
#include <cmath>

namespace spotfi {
namespace {

/// EWMA weight of the newest round-duration sample in the cost model.
constexpr double kCostEwmaAlpha = 0.3;
static_assert(kCostEwmaAlpha > 0.0 && kCostEwmaAlpha <= 1.0,
              "an EWMA weight lies in (0, 1]");

}  // namespace

RoundCostModel::RoundCostModel(const OverloadConfig& config)
    : cost_s_(config.seed_cost_s) {
  for (const double c : cost_s_) {
    SPOTFI_EXPECTS(c >= 0.0 && std::isfinite(c),
                   "seed_cost_s entries must be finite and >= 0");
  }
}

void RoundCostModel::observe(ApStage level, double duration_s) {
  if (!(duration_s >= 0.0) || !std::isfinite(duration_s)) return;
  const std::size_t i = static_cast<std::size_t>(level);
  // First real sample replaces the seed outright; after that, EWMA.
  cost_s_[i] = seen_[i] ? (1.0 - kCostEwmaAlpha) * cost_s_[i] +
                              kCostEwmaAlpha * duration_s
                        : duration_s;
  seen_[i] = true;
}

OverloadPolicy::OverloadPolicy(OverloadConfig config)
    : config_(std::move(config)) {
  SPOTFI_EXPECTS(config_.queue_capacity >= 1,
                 "queue_capacity must be positive");
  const double fr[] = {0.0, config_.degrade_coarse_at,
                       config_.degrade_esprit_at, config_.degrade_rssi_at};
  for (std::size_t i = 1; i < kRungCount; ++i) {
    SPOTFI_EXPECTS(fr[i] >= 0.0 && fr[i] <= 1.0,
                   "degrade fractions must be in [0, 1]");
    SPOTFI_EXPECTS(fr[i] >= fr[i - 1],
                   "degrade fractions must be non-decreasing");
  }
  SPOTFI_EXPECTS(config_.round_deadline_s >= 0.0,
                 "round_deadline_s must be >= 0");
  const double cap = static_cast<double>(config_.queue_capacity);
  for (std::size_t i = 0; i < kRungCount; ++i) {
    rung_depth_[i] = static_cast<std::size_t>(std::ceil(fr[i] * cap));
  }
  // A fraction of 0 still means "from the first packet", not "always":
  // rung 0 (full fidelity) owns the empty queue.
  for (std::size_t i = 1; i < kRungCount; ++i) {
    rung_depth_[i] = std::max<std::size_t>(rung_depth_[i], 1);
  }
}

ApStage OverloadPolicy::level_for_depth(std::size_t depth) const {
  std::size_t level = 0;
  for (std::size_t i = 1; i < kRungCount; ++i) {
    if (depth >= rung_depth_[i]) level = i;
  }
  return static_cast<ApStage>(level);
}

AdmissionVerdict OverloadPolicy::admit(std::size_t depth) const {
  AdmissionVerdict verdict;
  verdict.level = level_for_depth(depth);
  if (verdict.level == ApStage::kPrimary) return verdict;  // accepted
  verdict.kind = AdmissionVerdict::Kind::kDegraded;
  verdict.reason = "ingest queue occupancy past a degrade rung";
  return verdict;
}

RoundPlan OverloadPolicy::plan_round(std::size_t depth,
                                     const RoundCostModel& cost) const {
  RoundPlan plan;
  plan.level = level_for_depth(depth);
  if (plan.level != ApStage::kPrimary) {
    plan.reason = "queue occupancy past a degrade rung";
  }
  if (config_.round_deadline_s <= 0.0) return plan;

  // Walk down the ladder from the occupancy rung until the estimated
  // cost fits the budget. Occupancy never *raises* fidelity: the
  // deadline can only degrade further.
  std::size_t level = static_cast<std::size_t>(plan.level);
  while (level + 1 < kRungCount &&
         cost.estimate_s(static_cast<ApStage>(level)) >
             config_.round_deadline_s) {
    ++level;
  }
  if (cost.estimate_s(static_cast<ApStage>(level)) >
      config_.round_deadline_s) {
    plan.run = false;
    plan.level = static_cast<ApStage>(level);
    plan.deadline_limited = true;
    plan.reason = "deadline unmeetable at any fidelity";
    return plan;
  }
  if (level != static_cast<std::size_t>(plan.level)) {
    plan.level = static_cast<ApStage>(level);
    plan.deadline_limited = true;
    plan.reason = "deadline requires a cheaper fidelity";
  }
  return plan;
}

}  // namespace spotfi
