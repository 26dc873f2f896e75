// The central server (Fig. 1, Algorithm 2): collects per-AP CSI packet
// groups, runs the per-AP stage on each, and fuses the resulting
// observations into a location with the likelihood-weighted solver.
//
// One round path, try_localize(): each AP's group is quality-screened
// and runs its estimator fallback chain, an outlier AP may be rejected
// by leave-one-out residuals, and the Expected-style result carries
// degradation reasons instead of throwing. The figures run the same
// path with leave-one-out rejection off (testbed/experiment.hpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/ap_processor.hpp"
#include "localize/spotfi_localizer.hpp"

namespace spotfi {

/// One AP's input to a localization round.
struct ApCapture {
  ArrayPose pose;
  std::vector<CsiPacket> packets;
};

/// Fusion-stage fault tolerance.
struct FusionConfig {
  /// Leave-one-out residual check: when one AP's bearing is confidently
  /// wrong (a stable reflection winning Eq. 8, or a mis-surveyed pose),
  /// the remaining APs agree on a location the outlier's AoA cannot
  /// explain. Greedily reject the AP whose measured bearing disagrees
  /// worst with the leave-it-out solution, and repeat on the survivors.
  /// Cost ratios don't work here: the Huber kernel bounds exactly the
  /// residual this check needs to see, so the raw angular miss is used.
  /// The thresholds are constants of server.cpp (DESIGN.md §7).
  bool loo_rejection = true;
};

struct ServerConfig {
  ApProcessorConfig ap{};
  LocalizerConfig localizer{};
  FusionConfig fusion{};
  /// Lanes of concurrency for the per-AP (and nested per-packet) stages
  /// and for the Eq. 9 solves of each fusion pass: 0 = hardware
  /// concurrency, 1 = strictly serial (no worker threads are created and
  /// no synchronization runs). The SPOTFI_THREADS environment variable
  /// overrides this value at server construction. Every estimate, note,
  /// and numerics digest is identical for every setting: per-AP Rng
  /// streams are forked from the caller's generator in capture order
  /// before dispatch, results are slotted by index, and worker-side
  /// counters are merged in index order (see DESIGN.md §10).
  std::size_t num_threads = 0;
  /// When set, the server uses this pool instead of constructing its own
  /// and `num_threads` is ignored. The multi-tenant session layer hands
  /// every session's server one shared pool so N sessions contend for
  /// one set of workers instead of spawning N of them. Determinism is
  /// unaffected — results are slotted by index regardless of which pool
  /// ran them.
  std::shared_ptr<ThreadPool> shared_pool;
};

/// Result of one localization round, with per-AP diagnostics.
struct LocalizationRound {
  LocationEstimate location;
  std::vector<ApResult> ap_results;
  /// Which fallback stage produced each AP's observation (parallel to
  /// ap_results).
  std::vector<ApStage> ap_stages;
  /// Human-readable degradation reasons (empty = clean round).
  std::vector<std::string> notes;
  /// Indices (into ap_results) of APs rejected by the leave-one-out
  /// residual check, in rejection order.
  std::vector<std::size_t> rejected_aps;
  /// True when any AP degraded past its primary estimator or an outlier
  /// was rejected. Numerical-fallback activity alone (a regularized solve
  /// inside an otherwise-primary round) does NOT set this — it is
  /// reported through `numerics`/`notes` instead.
  bool degraded = false;
  /// Round-wide numerical-fallback telemetry: the sum of every AP's
  /// counters plus anything the fusion stage (localizer, LOO solves)
  /// triggered.
  NumericsCounters numerics;
  /// Scratch-arena footprint of the round: the largest single frame
  /// opened anywhere — max over every AP's
  /// ApOutcome::workspace_peak_bytes and every fusion solve's frame (the
  /// primary solve's multi-starts, or an LOO subset and its solve), each
  /// opened on the arena of the lane that ran it.
  std::size_t workspace_peak_bytes = 0;
  /// The overload rung this round was planned at (kPrimary outside the
  /// session layer). The rung is a floor on each AP's configured entry
  /// stage, so `ap_stages` — not this field — says what actually ran.
  ApStage fidelity = ApStage::kPrimary;
  /// Per-stage cost split of the round: every AP's
  /// ApOutcome::stage_breakdown folded in capture order (times sum;
  /// arena peaks take the max, since APs share the lane arenas), plus
  /// every fusion solve's kLocalize bucket (primary solve + LOO
  /// re-solves) folded in task order. Its time is lane-seconds: solves
  /// of one pass may run at once on different lanes, so the sum can
  /// exceed the fusion stage's wall time. The peak is the largest single
  /// solve's.
  StageBreakdown stage_breakdown;
};

/// Why a round produced no location.
struct RoundError {
  std::string reason;
  /// Usable observations that survived the per-AP stage.
  std::size_t usable_aps = 0;
};

/// Forks the per-AP Rng streams of a round off `rng`: one per capture,
/// in capture order, and none below two captures (such a round fails
/// without consuming randomness). The one owner of this rule, so a
/// round prepared now and executed later draws exactly what an inline
/// try_localize() draws.
[[nodiscard]] std::vector<Rng> fork_round_streams(Rng& rng,
                                                  std::size_t n_captures);

class SpotFiServer {
 public:
  SpotFiServer(LinkConfig link, ServerConfig config = {});

  /// Runs Algorithm 2 end-to-end on the captures of one packet group:
  /// every AP runs the process_robust fallback chain, unusable APs are
  /// skipped, an outlier AP may be rejected by leave-one-out residuals,
  /// and failure (fewer than two captures or usable APs, a failed solve)
  /// is reported as a RoundError instead of an exception.
  [[nodiscard]] Expected<LocalizationRound, RoundError> try_localize(
      std::span<const ApCapture> captures, Rng& rng) const;

  /// try_localize with the per-AP Rng streams already forked by
  /// fork_round_streams(). This is the batching entry point: the
  /// session layer forks streams at round-preparation time (fixing the
  /// deterministic order) and executes rounds later — possibly
  /// concurrently with other sessions' rounds — with identical results.
  /// `rung` is the round's overload rung, a floor on every AP's entry
  /// stage (ApProcessor::process_robust). Fewer than two captures is a
  /// RoundError; otherwise requires streams.size() == captures.size().
  [[nodiscard]] Expected<LocalizationRound, RoundError> try_localize_forked(
      std::span<const ApCapture> captures, std::span<Rng> streams,
      ApStage rung = ApStage::kPrimary) const;

  [[nodiscard]] const ServerConfig& config() const { return config_; }
  [[nodiscard]] const LinkConfig& link() const { return link_; }
  /// Lanes of concurrency this server actually runs with (after the
  /// SPOTFI_THREADS override and hardware-concurrency resolution).
  [[nodiscard]] std::size_t num_threads() const;

 private:
  /// Runs `task(i)` for every i in [0, n) — the APs of a round, or the
  /// Eq. 9 solves of one fusion pass — across the pool when one exists.
  void fan_out(std::size_t n,
               const std::function<void(std::size_t)>& task) const;
  /// The per-AP processor config with the server's pool injected.
  [[nodiscard]] ApProcessorConfig ap_config() const;

  LinkConfig link_;
  ServerConfig config_;
  /// Null when resolved concurrency is 1 — the serial path never pays
  /// for pool machinery. shared_ptr so servers stay copyable.
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace spotfi
