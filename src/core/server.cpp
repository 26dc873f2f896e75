#include "core/server.hpp"

#include <algorithm>
#include <cmath>

#include "common/angles.hpp"
#include "common/stats.hpp"

namespace spotfi {
namespace {

/// Leave-one-out never rejects below this many usable observations
/// (subsets must stay well-posed, and rejection needs a meaningful
/// consensus).
constexpr std::size_t kLooMinAps = 4;
/// Reject an AP only when its bearing misses the leave-one-out solution
/// by more than this [rad] (~34 deg) ...
constexpr double kLooMaxAoaMissRad = 0.6;
/// ... and only when that miss is also an outlier relative to its peers:
/// worst > factor * median of this round's misses. Uniformly noisy
/// rounds (small groups) have large misses everywhere; peeling APs off
/// there trades a decent consensus for a biased one.
constexpr double kLooMedianFactor = 3.0;

/// One Eq. 9 solve of a fusion pass and what it brought back. The slots
/// of a pass live on the dispatcher's frame, so every field is trivially
/// copyable; a failed primary solve's message travels separately.
struct FusionSolve {
  /// The usable observation this solve leaves out; usable.size() for
  /// the primary solve, which keeps them all.
  std::size_t drop = 0;
  bool ok = false;
  LocationEstimate estimate;
  StageBreakdown breakdown;
  NumericsCounters numerics;
  std::size_t workspace_peak_bytes = 0;
};

}  // namespace

SpotFiServer::SpotFiServer(LinkConfig link, ServerConfig config)
    : link_(link), config_(std::move(config)) {
  if (config_.shared_pool) {
    // An injected pool wins outright; a pool of size 1 (post-shutdown or
    // deliberately serial) still routes through it, which keeps arena
    // selection consistent across the sessions sharing it.
    pool_ = config_.shared_pool;
    return;
  }
  const std::size_t threads = ThreadPool::resolve_threads(config_.num_threads);
  if (threads > 1) pool_ = std::make_shared<ThreadPool>(threads);
}

std::size_t SpotFiServer::num_threads() const {
  return pool_ ? pool_->size() : 1;
}

void SpotFiServer::fan_out(
    std::size_t n, const std::function<void(std::size_t)>& task) const {
  if (pool_) {
    pool_->parallel_for(n, task);
  } else {
    for (std::size_t i = 0; i < n; ++i) task(i);
  }
}

ApProcessorConfig SpotFiServer::ap_config() const {
  ApProcessorConfig cfg = config_.ap;
  // The per-packet fan-out shares the per-AP pool: when the AP tasks
  // already occupy the workers, nested dispatch runs inline; when there
  // are fewer APs than lanes (or a caller drives ApProcessor directly),
  // the packet loop picks up the slack.
  cfg.pool = pool_.get();
  return cfg;
}

std::vector<Rng> fork_round_streams(Rng& rng, std::size_t n_captures) {
  // Forked *before* dispatch: the estimates are then a pure function of
  // (captures, seed), independent of how many threads ran the APs or in
  // which order they finished.
  std::vector<Rng> streams;
  if (n_captures < 2) return streams;
  streams.reserve(n_captures);
  for (std::size_t i = 0; i < n_captures; ++i) streams.push_back(rng.fork());
  return streams;
}

Expected<LocalizationRound, RoundError> SpotFiServer::try_localize(
    std::span<const ApCapture> captures, Rng& rng) const {
  std::vector<Rng> streams = fork_round_streams(rng, captures.size());
  return try_localize_forked(captures, streams);
}

Expected<LocalizationRound, RoundError> SpotFiServer::try_localize_forked(
    std::span<const ApCapture> captures, std::span<Rng> streams,
    ApStage rung) const {
  if (captures.size() < 2) {
    return RoundError{"need at least two AP captures", 0};
  }
  SPOTFI_EXPECTS(streams.size() == captures.size(),
                 "try_localize_forked needs one forked stream per capture");

  // Per-AP stage: each AP's fallback chain on its own forked stream.
  // Each AP's numerics counters ride home in its ApOutcome
  // (process_robust collects into a detached scope), and are merged into
  // the round scope below in capture order.
  const std::size_t n = captures.size();
  const ApProcessorConfig ap_cfg = ap_config();
  std::vector<ApOutcome> outcomes(n);
  fan_out(n, [&](std::size_t i) {
    if (captures[i].packets.empty()) return;  // folded below
    const ApProcessor processor(link_, captures[i].pose, ap_cfg);
    outcomes[i] =
        processor.process_robust(captures[i].packets, streams[i], rung);
  });

  // Round-wide numerics telemetry: the merged per-AP counters plus
  // fusion-stage events (localizer multi-start rejections, LOO subset
  // solves) land here.
  NumericsScope numerics_scope;

  LocalizationRound round;
  round.ap_results.reserve(n);
  round.ap_stages.reserve(n);
  std::vector<ApObservation> usable;
  std::vector<std::size_t> usable_ap;  ///< capture index per usable obs
  for (std::size_t i = 0; i < n; ++i) {
    if (captures[i].packets.empty()) {
      round.ap_results.emplace_back();
      round.ap_results.back().observation.pose = captures[i].pose;
      round.ap_results.back().observation.likelihood = 0.0;
      round.ap_stages.push_back(ApStage::kFailed);
      round.notes.push_back("ap " + std::to_string(i) + ": empty capture");
      round.degraded = true;
      continue;
    }
    ApOutcome& outcome = outcomes[i];
    count_numerics(outcome.numerics);
    round.workspace_peak_bytes =
        std::max(round.workspace_peak_bytes, outcome.workspace_peak_bytes);
    round.stage_breakdown.merge(outcome.stage_breakdown);
    round.ap_stages.push_back(outcome.stage);
    if (outcome.stage != ApStage::kPrimary) {
      round.degraded = true;
      std::string note =
          "ap " + std::to_string(i) + ": " + to_string(outcome.stage);
      if (!outcome.note.empty()) note += " (" + outcome.note + ")";
      round.notes.push_back(std::move(note));
    } else if (outcome.numerics.any()) {
      // The primary estimator succeeded but leaned on a numerical
      // fallback. Worth a note — not a degradation: `degraded` keeps
      // meaning "past the primary estimator or an outlier was rejected".
      round.notes.push_back("ap " + std::to_string(i) +
                            ": numerics: " + outcome.numerics.summary());
    }
    if (outcome.usable) {
      usable.push_back(outcome.result.observation);
      usable_ap.push_back(i);
    }
    round.ap_results.push_back(std::move(outcome.result));
  }

  if (usable.size() < 2) {
    return RoundError{"fewer than two usable AP observations", usable.size()};
  }

  // Fusion (Eq. 9). The solves of one pass do not depend on each
  // other, so a pass runs as one batch on the pool (DESIGN.md §10): pass
  // 1 is the primary solve plus, with leave-one-out on, the subset
  // without each usable bearing; every later pass is the survivors'
  // subsets. A solve runs on its lane's arena under a detached numerics
  // scope and its own breakdown, and catches its own exception; its
  // result lands in its slot, and the slots fold here in task order.
  // Each solve meters kLocalize on the frame it fills, so the bucket's
  // time is the solves' sum and its peak the largest one solve's.
  const SpotFiLocalizer localizer(config_.localizer);
  std::string primary_error;  // built only when the primary solve throws
  Workspace& ws = pool_ ? pool_->workspace() : thread_workspace();
  const auto run_pass = [&](bool primary) {
    const bool loo =
        config_.fusion.loo_rejection && usable.size() > kLooMinAps;
    std::size_t n_solves = primary ? 1 : 0;
    for (const ApObservation& obs : usable) {
      // An RSSI-only AP has no bearing to disagree with.
      if (loo && obs.has_aoa) ++n_solves;
    }
    const std::span<FusionSolve> solves = ws.take<FusionSolve>(n_solves);
    std::size_t t = 0;
    if (primary) solves[t++].drop = usable.size();
    for (std::size_t drop = 0; loo && drop < usable.size(); ++drop) {
      if (usable[drop].has_aoa) solves[t++].drop = drop;
    }
    fan_out(n_solves, [&](std::size_t task) {
      FusionSolve& solve = solves[task];
      NumericsScope scope{kDetachedScope};
      Workspace& lane = pool_ ? pool_->workspace() : thread_workspace();
      Workspace::Frame frame(lane);
      std::span<const ApObservation> observations = usable;
      if (solve.drop < usable.size()) {
        const std::span<ApObservation> subset =
            lane.take<ApObservation>(usable.size() - 1);
        std::size_t fill = 0;
        for (std::size_t j = 0; j < usable.size(); ++j) {
          if (j != solve.drop) subset[fill++] = usable[j];
        }
        observations = subset;
      }
      try {
        StageMeter meter(&solve.breakdown, frame, StagePhase::kLocalize);
        solve.estimate = localizer.locate(observations, lane);
        solve.ok = true;
      } catch (const std::exception& e) {
        // A degenerate subset sits its pass out; a failed primary solve
        // fails the round below.
        if (solve.drop == usable.size()) primary_error = e.what();
      }
      solve.numerics = scope.counters();
      solve.workspace_peak_bytes = frame.peak_bytes();
    });
    for (const FusionSolve& solve : solves) {
      count_numerics(solve.numerics);
      round.stage_breakdown.merge(solve.breakdown);
      round.workspace_peak_bytes =
          std::max(round.workspace_peak_bytes, solve.workspace_peak_bytes);
    }
    return solves;
  };

  // Leave-one-out residual rejection. For each AP, solve without it and
  // measure how far its measured bearing misses the consensus of the
  // others; greedily reject the worst offender past the angular
  // threshold and repeat on the survivors. A lying AP drags every subset
  // that still contains it, so a single pass can finger the wrong AP —
  // iterating until nothing exceeds the threshold (or the floor is hit)
  // peels outliers off one at a time.
  for (bool first = true;; first = false) {
    Workspace::Frame pass_frame(ws);
    std::span<const FusionSolve> subsets = run_pass(first);
    if (first) {
      const FusionSolve& primary = subsets.front();
      if (!primary.ok) {
        return RoundError{"localizer: " + primary_error, usable.size()};
      }
      round.location = primary.estimate;
      subsets = subsets.subspan(1);
    }
    const std::span<double> misses = ws.take<double>(subsets.size());
    std::size_t n_misses = 0;
    double worst_miss = 0.0;
    const FusionSolve* worst = nullptr;
    for (const FusionSolve& solve : subsets) {
      if (!solve.ok) continue;
      const ApObservation& left_out = usable[solve.drop];
      const double miss = std::abs(
          wrap_pi(left_out.pose.apparent_aoa_of(solve.estimate.position) -
                  left_out.direct_aoa_rad));
      misses[n_misses++] = miss;
      if (miss > worst_miss) {
        worst_miss = miss;
        worst = &solve;
      }
    }
    if (worst == nullptr || worst_miss <= kLooMaxAoaMissRad ||
        worst_miss <= kLooMedianFactor *
                          percentile_in_place(misses.first(n_misses), 50.0)) {
      break;
    }
    const std::size_t drop = worst->drop;
    round.location = worst->estimate;
    round.rejected_aps.push_back(usable_ap[drop]);
    round.degraded = true;
    round.notes.push_back(
        "ap " + std::to_string(usable_ap[drop]) +
        ": rejected as outlier by leave-one-out residuals");
    usable.erase(usable.begin() + static_cast<std::ptrdiff_t>(drop));
    usable_ap.erase(usable_ap.begin() + static_cast<std::ptrdiff_t>(drop));
  }
  round.numerics = numerics_scope.counters();
  return round;
}

}  // namespace spotfi
