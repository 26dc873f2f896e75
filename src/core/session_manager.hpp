// Multi-tenant session layer (DESIGN.md §12): many independent
// localization streams sharing one estimation engine without any of
// them being able to stall or starve the others.
//
// The shape of the system:
//
//   producer threads            pump thread(s)          shared engine
//   ----------------            --------------          -------------
//   offer(session, pkt) --SPSC--> pump(session) --+--> ThreadPool
//   offer(session, pkt) --SPSC--> pump(session) --+      (one pool,
//        ...                        ...                   N sessions)
//
// Each session owns: its ID, a StreamingLocalizer (per-AP buffers,
// ApHealthState machines, and one SpotFiServer that runs every round at
// every rung), a bounded lock-free SPSC ingest queue, a forked Rng
// stream, and an overload controller (OverloadPolicy + RoundCostModel).
// The ThreadPool — and with it the per-worker arena lanes — is shared
// across every session: N tenants contend for one set of workers
// instead of spawning N pools.
//
// Backpressure is explicit at both ends:
//  * offer() grades every packet with an AdmissionVerdict. A full queue
//    sheds the packet (wait-free — a producer is never blocked), a
//    backlogged queue admits it under a degraded fidelity entitlement.
//  * pump() plans every about-to-fire round against queue occupancy and
//    the wall-clock deadline budget: the planned rung is a floor on each
//    AP's configured entry stage (so a backlog never makes a round
//    costlier), and a round that cannot meet its deadline even at
//    RSSI-only fidelity is dropped up front, never run late.
//
// Threading contract: offer() for one session from exactly one producer
// thread at a time, pump() for one session from exactly one consumer
// thread at a time (different sessions freely on different threads).
// open/close/stats are mutex-protected and safe from any thread;
// session_stats() reads only atomic counters, so it may run concurrently
// with both sides.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/spsc_queue.hpp"
#include "core/streaming.hpp"

namespace spotfi {

using SessionId = std::uint64_t;

/// One queued (AP, packet) pair — the unit of ingest.
struct IngestItem {
  std::size_t ap_id = 0;
  CsiPacket packet;
};

struct SessionConfig {
  /// The session's pipeline configuration. The manager injects its
  /// shared pool into streaming.server; num_threads is ignored here.
  StreamingConfig streaming{};
  /// Queue capacity, degrade rungs, and the per-round deadline budget.
  OverloadConfig overload{};
  /// AP deployment for this tenant (>= 2 required).
  std::vector<ArrayPose> aps;
  /// Seed of the session's private Rng stream. Two sessions with the
  /// same config, seed, and packet sequence produce byte-identical
  /// fixes — and identical to a standalone StreamingLocalizer fed the
  /// same way, at any thread count.
  std::uint64_t seed = 1;
};

/// Telemetry snapshot for one session. Counter semantics: every offered
/// packet is exactly one of accepted/shed; degraded_admissions counts
/// the accepted subset admitted under a non-full entitlement. Every
/// planned round is exactly one of rounds_full/rounds_degraded/
/// rounds_shed (+ failed_rounds for rounds that ran but produced no
/// fix, already included in full/degraded).
struct SessionStats {
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  /// Accepted while the queue was past a degrade rung.
  std::uint64_t degraded_admissions = 0;
  /// Rejected at the queue boundary (queue full).
  std::uint64_t shed_packets = 0;
  /// Deepest ingest-queue occupancy ever observed (<= queue_capacity by
  /// construction — the bounded-memory witness).
  std::size_t queue_high_water = 0;
  std::size_t queue_capacity = 0;
  /// Rounds planned at full fidelity (rung kPrimary).
  std::uint64_t rounds_full = 0;
  /// Rounds planned at a lower rung (occupancy or deadline). The rung is
  /// a floor, so an AP may have run a cheaper stage than it names.
  std::uint64_t rounds_degraded = 0;
  /// Rounds dropped by the planner (deadline unmeetable at any rung).
  std::uint64_t rounds_shed = 0;
  /// Rounds whose plan was forced down (or out) by the deadline budget
  /// rather than queue occupancy alone.
  std::uint64_t deadline_limited_rounds = 0;
  /// Rounds whose measured duration still exceeded the deadline budget.
  std::uint64_t deadline_misses = 0;
  /// Successful fixes emitted.
  std::uint64_t fixes = 0;
  /// Rounds that ran but produced no fix (estimator/fusion failure).
  std::uint64_t failed_rounds = 0;
};

/// Complete durable state of one session: everything beyond its
/// SessionConfig that the next localization round depends on. Exported
/// under quiescence (no concurrent offer/pump) for durability snapshots
/// and restored byte-exactly on recovery — a restored session fed the
/// same remaining packet sequence produces byte-identical fixes.
struct SessionDurableState {
  SessionId id = 0;
  SessionStats stats;
  /// Accepted packets already pushed through the localizer (the replay
  /// skip mark: journal records at or below it are in this state).
  std::uint64_t applied_packets = 0;
  /// Timer polls already applied, same skip semantics.
  std::uint64_t applied_polls = 0;
  /// Durable round ordinals handed out (LocationFix::durable_round_index).
  std::uint64_t emitted_fixes = 0;
  RngState rng;
  RoundCostState cost;
  StreamingState streaming;
};

struct SessionManagerConfig {
  /// Lanes of concurrency for the shared pool: 0 = hardware
  /// concurrency, 1 = serial (no pool). SPOTFI_THREADS overrides.
  std::size_t num_threads = 0;
  /// Wall-clock source for deadline budgeting and the cost model.
  /// Null = a process-wide MonotonicClock; tests inject a FakeClock
  /// (paired with OverloadConfig::seed_cost_s) to make every deadline
  /// decision deterministic. Not owned; must outlive the manager.
  const Clock* clock = nullptr;
};

class SessionManager {
 public:
  explicit SessionManager(LinkConfig link, SessionManagerConfig config = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a session (>= 2 APs required). The returned id is unique
  /// for the lifetime of the manager (never reused).
  [[nodiscard]] SessionId open_session(const SessionConfig& config);

  /// Retires a session; its counters fold into the global totals once
  /// every outstanding reference (e.g. a racing final pump()) drops.
  /// Idempotent: closing an id that was already closed is a no-op, so a
  /// close that races another close (or a recovery that re-closes a
  /// journaled close) retires the stats exactly once. Closing an id the
  /// manager never issued still throws ContractViolation.
  void close_session(SessionId id);

  /// Producer side: offers one packet to `session`'s ingest queue and
  /// returns the admission verdict. Wait-free past the session lookup —
  /// a full queue sheds (kShed) instead of blocking, a backlogged one
  /// admits under a degraded entitlement. The packet is consumed only
  /// when the verdict says admitted().
  AdmissionVerdict offer(SessionId id, std::size_t ap_id, CsiPacket packet);

  /// Producer-side variant for retrying callers (the ingest transport):
  /// identical admission semantics, but on a shed verdict `item` is
  /// left intact — payload and all — so the caller can retry later
  /// without a copy (SpscQueue::try_push moves nothing when full).
  /// Every call counts as one offer, so offered == accepted + shed
  /// still partitions exactly across retries.
  AdmissionVerdict offer_or_return(SessionId id, IngestItem& item);

  /// Consumer side: drains `session`'s queue through its localizer and
  /// returns the fixes that fired — pump_all() restricted to this one
  /// session. Runs on the calling thread; a backlog's rounds execute as
  /// one batch across the shared pool, a lone round fans its per-AP
  /// work out over it.
  [[nodiscard]] std::vector<LocationFix> pump(SessionId id);

  /// Advances one session's stream time without a packet (timer tick):
  /// deadline rounds for stalled tenants. Returns the fix if one fired.
  [[nodiscard]] std::optional<LocationFix> poll(SessionId id, double now_s);

  /// Drains every live session (in id order) through one batch and
  /// returns the number of fixes fired. Every drain (this one, pump(),
  /// poll(), replay_packet()) runs in three phases: *prepare* serially
  /// on the calling thread (overload plan, capture pop, Rng fork —
  /// everything order-sensitive), *execute* the prepared rounds as one
  /// batch across the pool (shared steering tables and lane arenas,
  /// whichever session a round came from), then *complete* serially in
  /// preparation order (fix assembly, tracker, counters). Streams are
  /// forked at preparation and execution is a pure function of the
  /// prepared round, so every fix is byte-identical to per-session
  /// pump() calls in id order. Round costs reach the deadline cost
  /// model at completion, so a drain plans all its rounds against the
  /// costs of earlier drains (irrelevant while round_deadline_s is
  /// unset).
  std::size_t pump_all();

  /// Rounds that executed inside a multi-round batch on the shared pool
  /// (the batching witness, from a backlogged pump() or a pump_all();
  /// serial managers and single-round batches don't count).
  [[nodiscard]] std::uint64_t batched_rounds() const {
    return batched_rounds_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] SessionStats session_stats(SessionId id) const;
  /// Sum over live sessions plus everything closed sessions retired.
  [[nodiscard]] SessionStats global_stats() const;

  /// The session's localizer, for health/diagnostics introspection
  /// (ap_state, failed rounds, ingest report). Single-threaded use only —
  /// do not call concurrently with that session's pump().
  [[nodiscard]] const StreamingLocalizer& localizer(SessionId id) const;

  [[nodiscard]] std::size_t session_count() const;
  /// The shared pool (null when concurrency resolved to 1).
  [[nodiscard]] std::shared_ptr<ThreadPool> pool() const { return pool_; }

  // -- durability / recovery support (DESIGN.md §14) -------------------
  // All of these share the snapshot contract: no concurrent offer/pump
  // on the sessions involved.

  /// Live session ids, ascending.
  [[nodiscard]] std::vector<SessionId> session_ids() const;
  /// The id the next open_session() would return.
  [[nodiscard]] SessionId next_session_id() const;
  /// Raises the id horizon so recovered managers never reuse an id that
  /// a previous incarnation issued. Never lowers it.
  void advance_session_ids(SessionId next);
  /// Aggregated counters of already-closed sessions (for snapshots).
  [[nodiscard]] SessionStats retired_stats() const;
  /// Seeds the closed-session aggregate on recovery.
  void restore_retired_stats(const SessionStats& retired);

  /// Recovery-only variant of open_session(): recreates a session under
  /// the id a previous incarnation issued (must not collide with a live
  /// session) and advances the id horizon past it.
  void reopen_session(SessionId id, const SessionConfig& config);

  /// Exports everything `id`'s next round depends on (see
  /// SessionDurableState). Quiesced sessions only.
  [[nodiscard]] SessionDurableState export_session_state(SessionId id) const;
  /// Restores a previously exported state into `id` (same config and AP
  /// registrations as at export time).
  void restore_session_state(SessionId id, SessionDurableState state);

  /// Replays one journaled accepted packet straight through `id`'s
  /// localizer — the recovery path around the ingest queue — with full
  /// round accounting, as if it had been offered and pumped. Returns
  /// the fix if the packet's round fired. `count_admission` re-counts
  /// the packet as offered+accepted; recovery passes false for packets
  /// whose admission is already inside the restored snapshot counters
  /// (accepted before the snapshot, applied after).
  [[nodiscard]] std::optional<LocationFix> replay_packet(
      SessionId id, std::size_t ap_id, CsiPacket packet,
      bool count_admission = true);
  /// Packets applied through `id`'s localizer so far (the durable replay
  /// mark; a resuming direct feeder skips this many accepted packets).
  [[nodiscard]] std::uint64_t applied_packets(SessionId id) const;
  /// Timer polls applied to `id` so far (the poll-ordinal counterpart).
  [[nodiscard]] std::uint64_t applied_polls(SessionId id) const;

 private:
  struct Session;
  struct BatchedRound;

  /// The queue drain: prepares every queued packet of `sessions`, in
  /// order, then run_batch(). Appends the fixes to `out` when it is
  /// non-null; returns how many fired.
  std::size_t drain(std::span<const std::shared_ptr<Session>> sessions,
                    std::vector<LocationFix>* out);
  /// run_batch() of the one round poll() or replay_packet() prepared.
  [[nodiscard]] std::optional<LocationFix> run_prepared(
      Session& session, std::optional<PendingRound> pending);
  /// Phases 2 and 3 of every drain: executes `batch` across the pool,
  /// then completes each round in preparation order.
  std::size_t run_batch(std::vector<BatchedRound>& batch,
                        std::vector<LocationFix>* out);
  [[nodiscard]] std::shared_ptr<Session> find(SessionId id) const;
  [[nodiscard]] std::shared_ptr<Session> make_session(
      const SessionConfig& config) const;
  /// Folds the stats of drained closed sessions (no outstanding
  /// references) into retired_. Caller holds mutex_.
  void reap_draining_locked();
  static void fold_stats(SessionStats& into, const SessionStats& from);

  LinkConfig link_;
  SessionManagerConfig config_;
  const Clock* clock_;
  std::shared_ptr<ThreadPool> pool_;

  mutable std::mutex mutex_;  ///< guards sessions_/draining_/next_id_/retired_
  std::vector<std::shared_ptr<Session>> sessions_;
  /// Closed sessions still referenced by an in-flight pump()/offer();
  /// their stats fold into retired_ when the last reference drops.
  std::vector<std::shared_ptr<Session>> draining_;
  SessionId next_id_ = 1;
  /// Aggregated counters of closed sessions.
  SessionStats retired_{};
  /// Rounds executed inside multi-round batches.
  std::atomic<std::uint64_t> batched_rounds_{0};
};

}  // namespace spotfi
