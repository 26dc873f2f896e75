#include "core/server.hpp"

#include <algorithm>
#include <cmath>

#include "common/angles.hpp"
#include "common/stats.hpp"

namespace spotfi {

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

void SpotFiServer::for_each_ap(
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
  for_each_ap(n, [&](std::size_t i) {
    if (captures[i].packets.empty()) return;  // folded below
    const ApProcessor processor(link_, captures[i].pose, ap_cfg);
    outcomes[i] =
        processor.process_robust(captures[i].packets, streams[i], rung);
  });

  // Round-wide numerics telemetry: the merged per-AP counters plus
  // fusion-stage events (localizer multi-start rejections, LOO subset
  // solves) land here.
  NumericsScope numerics_scope;

  // Fusion-stage scratch comes off the dispatching thread's arena; the
  // frame also meters the stage's peak footprint for the round telemetry.
  Workspace& ws = pool_ ? pool_->workspace() : thread_workspace();
  Workspace::Frame fusion_frame(ws);

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

  // The primary solve and every LOO re-solve share one telemetry
  // bucket: each runs under a kLocalize meter on the frame it fills, so
  // the bucket's time is their sum and its peak the largest one solve's.
  const SpotFiLocalizer localizer(config_.localizer);
  const auto locate = [&](std::span<const ApObservation> observations,
                          const Workspace::Frame& frame) {
    StageMeter meter(&round.stage_breakdown, frame, StagePhase::kLocalize);
    return localizer.locate(observations, ws);
  };
  try {
    round.location = locate(usable, fusion_frame);
  } catch (const std::exception& e) {
    return RoundError{std::string("localizer: ") + e.what(), usable.size()};
  }

  // Leave-one-out residual rejection. For each AP, solve without it and
  // measure how far its measured bearing misses the consensus of the
  // others; greedily reject the worst offender past the angular
  // threshold and repeat on the survivors. A lying AP drags every subset
  // that still contains it, so a single pass can finger the wrong AP —
  // iterating until nothing exceeds the threshold (or the floor is hit)
  // peels outliers off one at a time.
  const FusionConfig& fusion = config_.fusion;
  if (fusion.loo_rejection) {
    while (usable.size() > fusion.loo_min_aps) {
      Workspace::Frame pass_frame(ws);
      const std::span<double> misses = ws.take<double>(usable.size());
      std::size_t n_misses = 0;
      double worst_miss = 0.0;
      std::size_t worst = usable.size();
      LocationEstimate worst_estimate;
      for (std::size_t drop = 0; drop < usable.size(); ++drop) {
        if (!usable[drop].has_aoa) continue;  // no bearing to disagree with
        Workspace::Frame loo_frame(ws);
        const std::span<ApObservation> subset =
            ws.take<ApObservation>(usable.size() - 1);
        std::size_t fill = 0;
        for (std::size_t j = 0; j < usable.size(); ++j) {
          if (j != drop) subset[fill++] = usable[j];
        }
        try {
          const LocationEstimate est = locate(subset, loo_frame);
          const double miss = std::abs(
              wrap_pi(usable[drop].pose.apparent_aoa_of(est.position) -
                      usable[drop].direct_aoa_rad));
          misses[n_misses++] = miss;
          if (miss > worst_miss) {
            worst_miss = miss;
            worst = drop;
            worst_estimate = est;
          }
        } catch (const std::exception&) {
          // A degenerate subset just doesn't participate.
        }
      }
      if (worst >= usable.size() || worst_miss <= fusion.loo_max_aoa_miss_rad ||
          worst_miss <= fusion.loo_median_factor *
                            percentile_in_place(misses.first(n_misses), 50.0)) {
        break;
      }
      round.location = worst_estimate;
      round.rejected_aps.push_back(usable_ap[worst]);
      round.degraded = true;
      round.notes.push_back(
          "ap " + std::to_string(usable_ap[worst]) +
          ": rejected as outlier by leave-one-out residuals");
      usable.erase(usable.begin() + static_cast<std::ptrdiff_t>(worst));
      usable_ap.erase(usable_ap.begin() + static_cast<std::ptrdiff_t>(worst));
    }
  }
  round.numerics = numerics_scope.counters();
  round.workspace_peak_bytes =
      std::max(round.workspace_peak_bytes, fusion_frame.peak_bytes());
  return round;
}

}  // namespace spotfi
