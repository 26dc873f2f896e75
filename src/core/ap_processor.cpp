#include "core/ap_processor.hpp"

#include <algorithm>
#include <cmath>

#include "common/parallel.hpp"
#include "csi/sanitize.hpp"

namespace spotfi {
namespace {

/// A more forgiving MUSIC configuration for the retry stage: a coarser
/// grid and a thresholded, smaller signal subspace. Non-convergence and
/// spurious-peak failures are usually conditioning problems; trading
/// resolution for stability keeps an AoA observation alive.
JointMusicConfig relaxed_music(JointMusicConfig cfg) {
  cfg.aoa_step_rad *= 2.0;
  cfg.tof_step_s *= 2.0;
  cfg.min_relative_peak = std::min(cfg.min_relative_peak, 0.05);
  cfg.max_paths = std::min<std::size_t>(cfg.max_paths, 5);
  cfg.subspace.relative_threshold =
      std::max(cfg.subspace.relative_threshold, 0.1);
  cfg.subspace.max_signal_dims =
      std::min<std::size_t>(cfg.subspace.max_signal_dims, 6);
  return cfg;
}

}  // namespace

const char* to_string(ApStage stage) {
  switch (stage) {
    case ApStage::kPrimary: return "primary";
    case ApStage::kRelaxedMusic: return "relaxed-music";
    case ApStage::kEsprit: return "esprit";
    case ApStage::kRssiOnly: return "rssi-only";
    case ApStage::kFailed: return "failed";
  }
  return "unknown";
}

ApProcessor::ApProcessor(LinkConfig link, ArrayPose pose,
                         ApProcessorConfig config)
    : link_(link),
      pose_(pose),
      config_(std::move(config)),
      music_(link_, config_.music),
      esprit_(link_, config_.esprit) {}

std::size_t ApProcessor::estimate_in_frame(const JointMusicEstimator* music,
                                           const CsiPacket& packet,
                                           Workspace& ws,
                                           const Workspace::Frame& frame,
                                           StageBreakdown* sink,
                                           std::span<PathEstimate> out) const {
  ConstCMatrixView csi(packet.csi);
  {
    StageMeter meter(sink, frame, StagePhase::kSanitize);
    if (config_.sanitize) csi = sanitize_tof(csi, link_, ws);
  }
  if (music == nullptr) {
    // ESPRIT is eigendecomposition-dominated and has no grid sweep.
    StageMeter meter(sink, frame, StagePhase::kSubspace);
    return esprit_.estimate_into(csi, ws, out);
  }
  // The subspace views live in the caller's frame and feed the sweep
  // directly, exactly as JointMusicEstimator::estimate composes them.
  SubspacesRef sub;
  {
    StageMeter meter(sink, frame, StagePhase::kSubspace);
    sub = music->stage_subspace(csi, ws);
  }
  StageMeter meter(sink, frame, StagePhase::kSpectrum);
  return music->stage_spectrum(sub, ws, out);
}

ApResult ApProcessor::run_group(const JointMusicEstimator* music,
                                std::span<const CsiPacket> packets, Rng& rng,
                                StageBreakdown& breakdown,
                                std::size_t& ws_peak_out) const {
  struct PacketOutput {
    std::size_t count = 0;
    std::size_t ws_peak_bytes = 0;
    NumericsCounters numerics;
    StageBreakdown breakdown;
  };

  ThreadPool* const pool = config_.pool;
  const std::size_t max_paths = music != nullptr
                                    ? music->config().max_paths
                                    : esprit_.config().max_paths;
  std::vector<PacketOutput> outputs(packets.size());
  std::vector<PathEstimate> slots(packets.size() * max_paths);
  const auto run_packet = [&](std::size_t i) {
    // Detached: counters travel home in the task output and are merged
    // by the dispatching thread below, never through the thread-local
    // scope stack (which a pool worker does not share with the caller).
    NumericsScope scope{kDetachedScope};
    Workspace& ws = pool != nullptr ? pool->workspace() : thread_workspace();
    Workspace::Frame frame(ws);
    PacketOutput& output = outputs[i];
    output.count = estimate_in_frame(
        music, packets[i], ws, frame, &output.breakdown,
        std::span<PathEstimate>(slots).subspan(i * max_paths, max_paths));
    output.numerics = scope.counters();
    output.ws_peak_bytes = frame.peak_bytes();
  };
  if (pool != nullptr) {
    pool->parallel_for(packets.size(), run_packet);
  } else {
    for (std::size_t i = 0; i < packets.size(); ++i) run_packet(i);
  }

  ApResult result;
  double rssi_sum = 0.0;
  std::size_t total = 0;
  std::size_t ws_peak = 0;
  for (const auto& output : outputs) total += output.count;
  result.pooled_estimates.reserve(total);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto packet_slots = std::span<const PathEstimate>(slots).subspan(
        i * max_paths, outputs[i].count);
    result.pooled_estimates.insert(result.pooled_estimates.end(),
                                   packet_slots.begin(), packet_slots.end());
    count_numerics(outputs[i].numerics);
    breakdown.merge(outputs[i].breakdown);
    rssi_sum += packets[i].rssi_dbm;
    ws_peak = std::max(ws_peak, outputs[i].ws_peak_bytes);
  }
  SPOTFI_EXPECTS(!result.pooled_estimates.empty(),
                 "super-resolution produced no path estimates");

  Workspace& ws = pool != nullptr ? pool->workspace() : thread_workspace();
  Workspace::Frame frame(ws);
  StageMeter meter(&breakdown, frame, StagePhase::kCluster);
  result.clusters = cluster_path_estimates(result.pooled_estimates, link_,
                                           packets.size(), rng,
                                           config_.direct_path, ws);
  ws_peak_out = std::max(ws_peak, frame.peak_bytes());
  const ClusterSummary& direct =
      result.clusters[select_spotfi(result.clusters)];
  result.observation.pose = pose_;
  result.observation.direct_aoa_rad = direct.mean_aoa_rad;
  result.observation.likelihood = direct.likelihood;
  result.observation.rssi_dbm = rssi_sum / static_cast<double>(packets.size());
  return result;
}

std::size_t ApProcessor::max_paths() const {
  return config_.front_end == FrontEnd::kMusic ? config_.music.max_paths
                                               : config_.esprit.max_paths;
}

std::size_t ApProcessor::estimate_packet(const CsiPacket& packet,
                                         Workspace& ws,
                                         std::span<PathEstimate> out) const {
  SPOTFI_EXPECTS(out.size() >= max_paths(),
                 "estimate_packet output span below max_paths()");
  Workspace::Frame frame(ws);
  const JointMusicEstimator* music =
      config_.front_end == FrontEnd::kMusic ? &music_ : nullptr;
  return estimate_in_frame(music, packet, ws, frame, nullptr, out);
}

ApOutcome ApProcessor::process_robust(std::span<const CsiPacket> packets,
                                      Rng& rng, ApStage rung) const {
  SPOTFI_EXPECTS(!packets.empty(), "need at least one packet");
  ApOutcome out;

  // Collect every numerical-fallback event fired while this group is
  // processed. Detached: the counters are reported through
  // ApOutcome::numerics only, and the caller (SpotFiServer::try_localize)
  // merges them into its round scope explicitly — process_robust may run
  // on a pool worker where an implicit thread-local fold would be lost,
  // and an implicit fold on the inline path would then double-count.
  NumericsScope numerics_scope{kDetachedScope};
  auto finish = [&]() -> ApOutcome& {
    out.numerics = numerics_scope.counters();
    if (out.numerics.any()) {
      if (!out.note.empty()) out.note += "; ";
      out.note += "numerics: " + out.numerics.summary();
    }
    return out;
  };

  // The entry point: stages before `entry` are skipped outright; the
  // entry stage and every later one run until one succeeds. The overload
  // rung is a floor on the configured entry, so a backlog never makes a
  // round costlier.
  const bool primary_is_music = config_.front_end == FrontEnd::kMusic;
  // Relaxed MUSIC is a cheaper MUSIC, not a cheaper ESPRIT: an ESPRIT
  // front end entering there, by config or by rung, enters at ESPRIT.
  const ApStage later = std::max(config_.fallback.entry_stage, rung);
  const ApStage entry = !primary_is_music && later == ApStage::kRelaxedMusic
                            ? ApStage::kEsprit
                            : later;
  SPOTFI_EXPECTS(entry != ApStage::kFailed,
                 "entry_stage must name a runnable stage");
  const auto stage_allowed = [&](ApStage stage) { return stage >= entry; };

  // Screen whenever an estimator rung can run. A clean group (the common
  // case) is processed in place; only a dirty one is copied down to its
  // accepted packets. An RSSI-only entry averages the raw group below,
  // so it does not screen.
  std::vector<CsiPacket> accepted;
  std::span<const CsiPacket> screened;
  if (entry < ApStage::kRssiOnly) {
    ThreadPool* const pool = config_.pool;
    Workspace& ws = pool != nullptr ? pool->workspace() : thread_workspace();
    screened = screen_group_view(packets, config_.quality, ws, accepted);
    if (screened.empty()) {
      out.note = "quality screen rejected every packet in the group";
    }
  }

  // One fallback rung = one group run with MUSIC on `music`, or ESPRIT
  // when null; the ladder below only decides WHICH estimator runs, never
  // HOW a group is processed.
  auto attempt = [&](ApStage stage, const JointMusicEstimator* music) {
    try {
      out.stage_breakdown = StageBreakdown{};
      ApResult candidate = run_group(music, screened, rng,
                                     out.stage_breakdown,
                                     out.workspace_peak_bytes);
      // An estimator can "succeed" on corrupt input by propagating NaNs
      // into the observation; that counts as a stage failure.
      const ApObservation& obs = candidate.observation;
      if (!std::isfinite(obs.direct_aoa_rad) ||
          !std::isfinite(obs.likelihood) || !std::isfinite(obs.rssi_dbm) ||
          obs.likelihood <= 0.0) {
        throw NumericalError("produced a non-finite observation");
      }
      out.result = std::move(candidate);
      out.stage = stage;
      out.usable = true;
      return true;
    } catch (const std::exception& e) {
      if (!out.note.empty()) out.note += "; ";
      out.note += std::string(to_string(stage)) + ": " + e.what();
      return false;
    }
  };

  if (!screened.empty()) {
    if (stage_allowed(ApStage::kPrimary) &&
        attempt(ApStage::kPrimary, primary_is_music ? &music_ : nullptr)) {
      return finish();
    }
    // Built only when reached: the relaxed rung needs its own
    // (coarser-grid) estimator, which most groups never get to.
    if (stage_allowed(ApStage::kRelaxedMusic)) {
      const JointMusicEstimator relaxed(link_, relaxed_music(config_.music));
      if (attempt(ApStage::kRelaxedMusic, &relaxed)) return finish();
    }
    // Retrying ESPRIT after an ESPRIT-primary failure is redundant —
    // unless the ladder *enters* at ESPRIT, in which case it is the
    // requested estimator, not a retry.
    if (stage_allowed(ApStage::kEsprit) &&
        (primary_is_music || entry == ApStage::kEsprit) &&
        attempt(ApStage::kEsprit, nullptr)) {
      return finish();
    }
  }

  if (stage_allowed(ApStage::kRssiOnly)) {
    // Last resort: RSSI-only. Even a packet whose CSI matrix is corrupt
    // can carry a valid RSSI report, so average over the raw group.
    double rssi_sum = 0.0;
    std::size_t n_rssi = 0;
    for (const auto& packet : packets) {
      if (std::isfinite(packet.rssi_dbm)) {
        rssi_sum += packet.rssi_dbm;
        ++n_rssi;
      }
    }
    if (n_rssi > 0) {
      out.result = ApResult{};
      out.result.observation.pose = pose_;
      out.result.observation.has_aoa = false;
      out.result.observation.likelihood = kRssiOnlyLikelihood;
      out.result.observation.rssi_dbm =
          rssi_sum / static_cast<double>(n_rssi);
      out.stage = ApStage::kRssiOnly;
      out.usable = true;
      return finish();
    }
    if (!out.note.empty()) out.note += "; ";
    out.note += "rssi-only: no finite RSSI in the group";
  }

  out.result = ApResult{};
  out.result.observation.pose = pose_;
  out.result.observation.likelihood = 0.0;  // ignored by the localizer
  out.stage = ApStage::kFailed;
  out.usable = false;
  return finish();
}

}  // namespace spotfi
