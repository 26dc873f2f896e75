// Per-AP processing: lines 2-10 of Algorithm 2.
//
// For every packet in a group the processor sanitizes the CSI phase
// (Algorithm 1), runs SpotFi's joint AoA/ToF super-resolution, and pools
// the resulting path estimates; the pooled estimates are clustered and
// the direct path selected by the Eq. 8 likelihood. The output is the
// compact ApObservation the central server fuses.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "channel/csi_synthesis.hpp"
#include "cluster/direct_path.hpp"
#include "common/telemetry.hpp"
#include "csi/quality.hpp"
#include "linalg/numerics.hpp"
#include "localize/observation.hpp"
#include "music/esprit.hpp"

namespace spotfi {

class ThreadPool;

/// Everything the per-AP processing produces; the server consumes
/// `observation`, the diagnostics and benches use the rest.
struct ApResult {
  /// Clusters sorted by likelihood (descending).
  std::vector<ClusterSummary> clusters;
  /// Pooled per-packet estimates (Fig. 5(c) scatter).
  std::vector<PathEstimate> pooled_estimates;
  /// The selected direct path as a fusion-ready observation.
  ApObservation observation;
};

/// Which joint AoA/ToF estimator drives the per-packet stage.
enum class FrontEnd {
  kMusic,   ///< the paper's 2-D MUSIC grid search
  kEsprit,  ///< search-free shift invariance (see music/esprit.hpp)
};

/// Which stage of the estimator fallback chain produced an ApOutcome.
/// Ordered by decreasing fidelity: process_robust walks this chain until
/// one stage succeeds. kPrimary through kRssiOnly are also the rungs of
/// the overload shedding ladder (core/overload.hpp).
enum class ApStage {
  kPrimary,       ///< the configured front end, full resolution
  kRelaxedMusic,  ///< MUSIC retried on a coarser, more forgiving grid
  kEsprit,        ///< search-free shift-invariance fallback
  kRssiOnly,      ///< no AoA recovered; RSSI range constraint only
  kFailed,        ///< not even a finite RSSI — observation unusable
};

[[nodiscard]] const char* to_string(ApStage stage);

/// Likelihood assigned to an RSSI-only observation: small, so a healthy
/// AP's AoA always dominates, but positive, so the range constraint
/// still anchors the Eq. 9 solve when bearings are scarce.
inline constexpr double kRssiOnlyLikelihood = 0.05;

struct ApFallbackConfig {
  /// Where process_robust enters the chain. kPrimary is the normal full-
  /// fidelity path; a later stage skips the more expensive ones entirely
  /// (an RSSI-only deployment never runs an estimator). The overload
  /// ladder (core/overload.hpp) can only move the entry later: a round's
  /// planned rung is a floor on this stage, never an override. Must not
  /// be kFailed.
  ApStage entry_stage = ApStage::kPrimary;
};

struct ApProcessorConfig {
  FrontEnd front_end = FrontEnd::kMusic;
  JointMusicConfig music{};
  EspritConfig esprit{};
  DirectPathConfig direct_path{};
  /// Apply Algorithm 1 before estimation (disable to reproduce the
  /// ablation of Fig. 5's sanitization study).
  bool sanitize = true;
  /// The packet screen (csi/quality.hpp) applied to every group before
  /// an estimator runs, and to every packet at streaming ingest.
  QualityConfig quality{};
  /// Estimator fallback chain (see process_robust).
  ApFallbackConfig fallback{};
  /// Non-owning thread pool for the per-packet estimation fan-out
  /// (nullptr = serial). Results are pooled in packet order and the
  /// per-packet numerics counters merged in packet order, so the output
  /// is identical with and without a pool. When the processor itself
  /// runs inside a pool task (the server's per-AP fan-out), nested
  /// dispatch degrades to an inline loop automatically.
  ThreadPool* pool = nullptr;
};

/// Exception-free per-AP result: the server calls process_robust and
/// inspects `stage`/`usable` instead of catching.
struct ApOutcome {
  ApResult result;
  ApStage stage = ApStage::kPrimary;
  /// True when `result.observation` can enter the Eq. 9 fusion.
  bool usable = false;
  /// Why the chain degraded past kPrimary (empty otherwise). When any
  /// numerics counter fired, a "numerics: ..." digest is appended even at
  /// kPrimary — a successful stage that leaned on regularization is worth
  /// knowing about.
  std::string note;
  /// Numerical-fallback events (regularized solves, non-convergences,
  /// variance floors, ...) recorded while this group was processed.
  NumericsCounters numerics;
  /// Peak scratch-arena bytes of any single frame (per-packet estimation
  /// or the group's clustering) opened while this group was processed —
  /// the per-group memory footprint of the winning stage. Capacity
  /// regressions (a config change blowing up the arena) surface here.
  std::size_t workspace_peak_bytes = 0;
  /// Per-stage wall time and arena footprint of the winning fallback
  /// rung's group run (or the last rung attempted, when the chain fell
  /// through to RSSI/failed). Times sum over the group's packets; peaks
  /// are per-phase maxima across packets. This is the per-round
  /// eig-vs-sweep cost split ROADMAP items 2-3 need in production, not
  /// just in microbenches.
  StageBreakdown stage_breakdown;
};

class ApProcessor {
 public:
  ApProcessor(LinkConfig link, ArrayPose pose, ApProcessorConfig config = {});

  /// Processes one packet group (the paper uses 10-40 packets). Never
  /// throws past the chain (beyond ContractViolation for an empty group):
  /// screens the group with config().quality, tries the configured front
  /// end first, then retries MUSIC on a relaxed grid, falls back to
  /// ESPRIT, and finally emits an RSSI-only observation; `stage`/`note`
  /// record how far it had to degrade.
  /// The chain is entered at the later of fallback.entry_stage and
  /// `rung` (the round's overload rung, a floor). Relaxed MUSIC is a
  /// cheaper MUSIC, not a cheaper ESPRIT, so with an ESPRIT front end a
  /// kRelaxedMusic entry, configured or planned, counts as kEsprit.
  [[nodiscard]] ApOutcome process_robust(
      std::span<const CsiPacket> packets, Rng& rng,
      ApStage rung = ApStage::kPrimary) const;

  /// One packet through sanitization and the configured front end's
  /// super-resolution, every scratch buffer drawn from `ws`
  /// (frame-scoped internally, so the arena is returned unchanged).
  /// Writes at most max_paths() estimates into `out` and returns the
  /// count. This is the per-packet inner loop of process_robust's
  /// primary rung; a warmed arena makes it perform zero heap allocations
  /// (tests/alloc_test.cpp pins that contract).
  [[nodiscard]] std::size_t estimate_packet(const CsiPacket& packet,
                                            Workspace& ws,
                                            std::span<PathEstimate> out) const;

  /// Estimate capacity estimate_packet needs: the configured front end's
  /// max_paths.
  [[nodiscard]] std::size_t max_paths() const;

  [[nodiscard]] const ArrayPose& pose() const { return pose_; }
  [[nodiscard]] const ApProcessorConfig& config() const { return config_; }
  [[nodiscard]] const LinkConfig& link() const { return link_; }

 private:
  /// One packet through one rung's estimator: Algorithm 1 sanitization
  /// (metered as kSanitize; a pass-through when config().sanitize is
  /// off), then MUSIC with `music` (kSubspace, then kSpectrum) or, when
  /// `music` is null, ESPRIT (metered whole as kSubspace). Runs in the
  /// caller's open `frame` on `ws`, metered into `sink` (null: no
  /// metering), and writes at most the estimator's max_paths estimates
  /// into `out`; returns the count.
  [[nodiscard]] std::size_t estimate_in_frame(
      const JointMusicEstimator* music, const CsiPacket& packet,
      Workspace& ws, const Workspace::Frame& frame, StageBreakdown* sink,
      std::span<PathEstimate> out) const;

  /// Algorithm 2 lines 2-10 for one packet group, with MUSIC on `music`
  /// (or ESPRIT when null) as the super-resolution step: every packet
  /// through estimate_in_frame (fanned out over config().pool, each on
  /// its lane's arena, folded in packet order so the result is
  /// identical at any thread count), then pool, cluster and select the
  /// direct path (metered together as kCluster). `rng` is consumed only
  /// by the clustering, exactly once. `breakdown` receives the per-phase
  /// telemetry, `ws_peak_out` the largest single-frame arena footprint.
  /// Requires a non-empty group; throws when estimation produces no
  /// path estimates.
  [[nodiscard]] ApResult run_group(const JointMusicEstimator* music,
                                   std::span<const CsiPacket> packets,
                                   Rng& rng, StageBreakdown& breakdown,
                                   std::size_t& ws_peak_out) const;

  LinkConfig link_;
  ArrayPose pose_;
  ApProcessorConfig config_;
  JointMusicEstimator music_;
  JointEspritEstimator esprit_;
};

}  // namespace spotfi
