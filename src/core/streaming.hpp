// Streaming localization server: the online face of Fig. 1's central
// server, hardened for dirty distributed CSI acquisition.
//
// APs push (ap_id, CsiPacket) as packets arrive. A localization round
// fires when every live AP has accumulated a full group — or, when some
// APs stall (crash, jam, congestion), after a per-round deadline with a
// minimum-AP quorum, so one dead AP degrades accuracy (Fig. 9a) instead
// of stalling the pipeline forever. Each AP carries a health state
// machine (healthy -> degraded -> dead, recovering on fresh packets),
// rounds run through SpotFiServer::try_localize (estimator fallback
// chains + leave-one-out outlier rejection), and round failures are
// reported as recoverable diagnostics, never exceptions.
#pragma once

#include <deque>
#include <limits>
#include <optional>
#include <string>

#include "core/overload.hpp"
#include "core/server.hpp"
#include "core/tracker.hpp"
#include "csi/trace.hpp"

namespace spotfi {

/// Per-AP liveness, driven by packet-arrival silence.
enum class ApHealth {
  kHealthy,   ///< fresh packets are flowing
  kDegraded,  ///< silent beyond degraded_after_s — suspect
  kDead,      ///< silent beyond dead_after_s — excluded from round gating
};

[[nodiscard]] const char* to_string(ApHealth health);

/// Diagnostics for one AP's stream.
struct ApHealthState {
  ApHealth health = ApHealth::kHealthy;
  /// Timestamp of the last accepted packet [s]; NaN before the first.
  double last_accepted_s = std::numeric_limits<double>::quiet_NaN();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  /// Completed dead -> healthy recoveries.
  std::size_t recoveries = 0;
};

/// Quorum/deadline round firing and health thresholds. All times are in
/// stream time (packet timestamps), so no wall clock is required and
/// replays are deterministic.
struct DegradationConfig {
  /// Master switch; false restores the strict all-APs gating (a round
  /// fires only when every registered AP has a full group). A deadline
  /// round needs a quorum of 2 full groups, and an AP with fewer than 3
  /// buffered packets contributes nothing to it (a too-small group only
  /// adds clustering noise).
  bool enabled = true;
  /// How long past the first quorum of full groups to wait for the
  /// stragglers before firing anyway [s].
  double round_deadline_s = 2.0;
  /// Packet silence after which an AP is suspect [s].
  double degraded_after_s = 1.0;
  /// Packet silence after which an AP is dead — it no longer gates round
  /// firing [s]. Must be >= degraded_after_s.
  double dead_after_s = 3.0;
};

struct StreamingConfig {
  ServerConfig server{};
  /// Packets per localization group (per AP).
  std::size_t group_size = 10;
  /// Screen incoming packets with server.ap.quality, the screen every
  /// round's groups pass too; rejected packets are counted but never
  /// buffered.
  bool screen_packets = true;
  /// The Kalman tracker that smooths the fixes.
  TrackerConfig tracker{};
  /// Drop buffered packets older than this once a round fires [s].
  double max_packet_age_s = 10.0;
  DegradationConfig degradation{};
};

/// Why a fired round produced no fix (recoverable; the stream continues).
struct RoundFailure {
  std::string reason;
  double time_s = 0.0;
};

struct LocationFix {
  Vec2 raw;       ///< the Eq. 9 solution for this group
  Vec2 tracked;   ///< tracker output (== raw when the tracker skipped it)
  double time_s = 0.0;
  LocalizationRound round;  ///< full per-AP diagnostics
  /// True when the round fired on a quorum deadline, an estimator fell
  /// back past its primary stage, or an outlier AP was rejected.
  bool degraded = false;
  /// AP ids whose captures entered this round.
  std::vector<std::size_t> aps_used;
  /// Human-readable degradation reasons (empty = clean round).
  std::vector<std::string> reasons;
  /// Monotone per-session round ordinal, assigned by the session layer
  /// (1-based; 0 for fixes from an unmanaged localizer). Survives crash
  /// recovery, so consumers dedup re-emitted fixes by this index.
  std::uint64_t durable_round_index = 0;
};

/// Serializable state of one AP's stream (durability snapshots).
struct ApBufferState {
  ApHealthState health;
  /// Buffered packets awaiting a round, oldest first.
  std::vector<CsiPacket> packets;
};

/// Complete dynamic state of a StreamingLocalizer, exportable under
/// quiescence and restorable into a localizer built from the same
/// LinkConfig/StreamingConfig and AP registrations. A restored localizer
/// fed the same packet sequence produces byte-identical fixes. The
/// last_failure() diagnostics string is intentionally not part of the
/// durable state.
struct StreamingState {
  std::vector<ApBufferState> aps;
  TrackerState tracker;
  IngestReport ingest;
  std::size_t rejected = 0;
  std::size_t failed_rounds = 0;
  std::size_t fix_count = 0;
  double now_s = -std::numeric_limits<double>::infinity();
  bool has_stream_start = false;
  double stream_start_s = 0.0;
  bool has_armed_since = false;
  double armed_since_s = 0.0;
  double last_fix_time_s = -std::numeric_limits<double>::infinity();
};

/// A localization round that has been *prepared* (captures popped,
/// overload plan attached, per-AP Rng streams forked by
/// fork_round_streams()) but not yet executed. Splitting the round
/// lifecycle into prepare -> execute -> complete is what enables
/// batching: preparation and completion touch localizer state and must
/// run on the owning thread, while execute_round() is const and
/// self-contained, so the session layer can gather prepared rounds from
/// one or many tenants and execute them as one shared batch on the
/// pool. Because the streams were forked at preparation time, the fix
/// is byte-identical no matter where or when execution happens.
struct PendingRound {
  std::vector<ApCapture> captures;
  /// One forked stream per capture; empty when captures.size() < 2
  /// (the round will fail without consuming randomness, exactly like
  /// the inline path) or when the plan shed the round.
  std::vector<Rng> streams;
  std::vector<std::size_t> ap_ids;
  /// The plan the round was prepared under: its rung (a floor on every
  /// AP's entry stage) and reason. plan.run == false marks a shed round:
  /// its captures are popped — the backlog drains — but it forks no
  /// streams and must not be executed.
  RoundPlan plan;
  bool deadline_round = false;
  double now_s = 0.0;
  /// Newest packet timestamp in the round's captures (the fix time).
  double latest_t = -std::numeric_limits<double>::infinity();
  /// Filled by execute_round().
  std::optional<Expected<LocalizationRound, RoundError>> outcome;
};

class StreamingLocalizer {
 public:
  StreamingLocalizer(LinkConfig link, StreamingConfig config = {});

  /// Registers an AP before streaming. Returns its id (dense, 0-based).
  std::size_t add_ap(const ArrayPose& pose);

  /// Pushes one packet from AP `ap_id` and fires a localization round
  /// when one is due (all live APs full, or the quorum deadline expired).
  /// Returns the fix when a round fired and succeeded. Round-level
  /// failures (estimator breakdown, too few usable APs) are recorded via
  /// last_failure()/failed_rounds() and never escape as exceptions; only
  /// misuse (unknown ap_id, fewer than two registered APs) throws
  /// ContractViolation. Takes the packet by value: the session layer's
  /// ingest path moves packets straight from its bounded queue into the
  /// AP buffer without a copy.
  [[nodiscard]] std::optional<LocationFix> push(std::size_t ap_id,
                                                CsiPacket packet, Rng& rng);

  /// Advances stream time without a packet (a timer tick): ages buffers,
  /// updates AP health, and fires a deadline round if one is due. Useful
  /// when every remaining AP went silent at once.
  [[nodiscard]] std::optional<LocationFix> poll(double now_s, Rng& rng);

  /// Deferred-execution flavor of push(): identical ingest and firing
  /// logic, but when a round becomes due it is returned *prepared*
  /// under `plan` instead of executed. The caller must pass a round
  /// that runs through execute_round() and then complete_round() (in
  /// preparation order per localizer) to obtain the fix; push() is
  /// exactly this composition under the default plan (kPrimary).
  /// Returns nullopt when no round fired. A round `plan` sheds comes
  /// back with plan.run == false, its captures popped and no streams
  /// forked; the plan's owner counts it and drops it.
  [[nodiscard]] std::optional<PendingRound> push_deferred(
      std::size_t ap_id, CsiPacket packet, Rng& rng,
      const RoundPlan& plan = {});
  /// Deferred-execution flavor of poll().
  [[nodiscard]] std::optional<PendingRound> poll_deferred(
      double now_s, Rng& rng, const RoundPlan& plan = {});
  /// Runs a prepared round's estimation + fusion into round.outcome.
  /// Const and state-free: safe to run on any thread, concurrently with
  /// other rounds (including this localizer's — the captures and
  /// streams are owned by the PendingRound). Not for shed rounds.
  void execute_round(PendingRound& round) const;
  /// Folds an executed round back into localizer state (tracker,
  /// counters, diagnostics) and assembles the fix. Must run on the
  /// owning thread, in preparation order.
  [[nodiscard]] std::optional<LocationFix> complete_round(PendingRound round);

  /// Replays a capture file from `reader` as AP `ap_id`'s packet stream:
  /// records decode fail-soft, every good packet is pushed, and the
  /// reader's IngestReport — plus any records whose CSI shape disagrees
  /// with this deployment's link (counted as payload mismatches) — is
  /// folded into ingest_report(). Corrupt bytes never throw; they cost
  /// records, visibly. Returns the fixes fired during the replay. The
  /// reader is consumed.
  [[nodiscard]] std::vector<LocationFix> ingest(std::size_t ap_id,
                                                TraceReader& reader, Rng& rng);

  /// Folds a reader-side IngestReport into the stream-wide account, for
  /// callers that drive CsitoolReader/TraceReader themselves.
  void note_ingest(const IngestReport& report);
  /// Byte/record accounting across every capture ingested so far.
  [[nodiscard]] const IngestReport& ingest_report() const {
    return ingest_report_;
  }

  [[nodiscard]] std::size_t ap_count() const { return buffers_.size(); }
  [[nodiscard]] std::size_t buffered(std::size_t ap_id) const;
  /// Packets dropped by the quality screen so far.
  [[nodiscard]] std::size_t rejected_count() const { return rejected_; }
  [[nodiscard]] const LocationTracker& tracker() const { return tracker_; }

  /// Health diagnostics.
  [[nodiscard]] ApHealth ap_health(std::size_t ap_id) const;
  [[nodiscard]] const ApHealthState& ap_state(std::size_t ap_id) const;
  /// Rounds that fired but produced no fix.
  [[nodiscard]] std::size_t failed_rounds() const { return failed_rounds_; }
  [[nodiscard]] const std::optional<RoundFailure>& last_failure() const {
    return last_failure_;
  }
  /// Successful fixes emitted so far.
  [[nodiscard]] std::size_t fix_count() const { return fix_count_; }

  /// Snapshot/restore of the full dynamic state (durability). Restore
  /// requires the same AP registrations (count checked); the server is
  /// configuration, not state, and is untouched.
  [[nodiscard]] StreamingState export_state() const;
  void restore_state(StreamingState state);

 private:
  struct ApBuffer {
    ArrayPose pose;
    std::deque<CsiPacket> packets;
    ApHealthState state;
  };

  void age_out(double now_s);
  void update_health(double now_s);
  /// The packet-acceptance half of push(): screening, buffering, health
  /// and stream-time updates — everything up to round firing.
  void ingest_packet(std::size_t ap_id, CsiPacket packet);
  /// Prepares a round under `plan` if one is due at `now_s`; nullopt
  /// otherwise.
  [[nodiscard]] std::optional<PendingRound> maybe_prepare(
      double now_s, Rng& rng, const RoundPlan& plan);
  /// Pops the captures, attaches the plan and, unless it sheds the
  /// round, forks the streams.
  [[nodiscard]] PendingRound prepare_round(
      const std::vector<std::size_t>& ap_ids, bool deadline_round,
      double now_s, Rng& rng, const RoundPlan& plan);

  LinkConfig link_;
  StreamingConfig config_;
  /// Built once (with its pool, when concurrency resolves past 1) and
  /// shared by every round at every rung.
  SpotFiServer server_;
  std::vector<ApBuffer> buffers_;
  LocationTracker tracker_;
  IngestReport ingest_report_;
  std::size_t rejected_ = 0;
  /// Stream time: max packet timestamp seen (also advanced by poll()).
  double now_s_ = -std::numeric_limits<double>::infinity();
  /// Timestamp of the first packet ever pushed; silence of an AP that has
  /// never delivered is measured from here.
  std::optional<double> stream_start_s_;
  /// When the current quorum of full groups formed (deadline anchor).
  std::optional<double> armed_since_s_;
  double last_fix_time_s_ = -std::numeric_limits<double>::infinity();
  std::size_t failed_rounds_ = 0;
  std::size_t fix_count_ = 0;
  std::optional<RoundFailure> last_failure_;
};

}  // namespace spotfi
