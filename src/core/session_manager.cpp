#include "core/session_manager.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace spotfi {
namespace {

const Clock& default_clock() {
  static const MonotonicClock clock;
  return clock;
}

}  // namespace

/// Per-tenant state, held by shared_ptr so a drain keeps it alive
/// across a racing close_session(). Counters that cross the
/// producer/consumer boundary are relaxed atomics — they are telemetry,
/// not synchronization.
struct SessionManager::Session {
  Session(const LinkConfig& link, const SessionConfig& cfg,
          StreamingConfig streaming)
      : id(0),
        localizer(link, std::move(streaming)),
        queue(cfg.overload.queue_capacity),
        policy(cfg.overload),
        cost(cfg.overload),
        rng(cfg.seed) {}

  SessionId id;
  StreamingLocalizer localizer;
  SpscQueue<IngestItem> queue;
  OverloadPolicy policy;
  RoundCostModel cost;
  Rng rng;

  // Producer-side counters.
  std::atomic<std::uint64_t> offered{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> degraded_admissions{0};
  std::atomic<std::uint64_t> shed_packets{0};
  // Pump-side counters (atomic so stats snapshots from other threads
  // never race; only the pump thread writes them).
  std::atomic<std::uint64_t> rounds_full{0};
  std::atomic<std::uint64_t> rounds_degraded{0};
  std::atomic<std::uint64_t> rounds_shed{0};
  std::atomic<std::uint64_t> deadline_limited_rounds{0};
  std::atomic<std::uint64_t> deadline_misses{0};
  std::atomic<std::uint64_t> fixes{0};
  std::atomic<std::uint64_t> failed_rounds{0};
  // Durability marks (DESIGN.md §14): how much of the accepted input
  // has been applied through the localizer, and how many durable round
  // ordinals have been handed out.
  std::atomic<std::uint64_t> applied_packets{0};
  std::atomic<std::uint64_t> applied_polls{0};
  std::atomic<std::uint64_t> emitted_fixes{0};
  /// queue_high_water recovered from a snapshot: the queue itself
  /// restarts empty, so the witness carries over as a floor.
  std::size_t high_water_floor = 0;

  [[nodiscard]] SessionStats snapshot() const {
    SessionStats s;
    s.offered = offered.load(std::memory_order_relaxed);
    s.accepted = accepted.load(std::memory_order_relaxed);
    s.degraded_admissions =
        degraded_admissions.load(std::memory_order_relaxed);
    s.shed_packets = shed_packets.load(std::memory_order_relaxed);
    s.queue_high_water = std::max(queue.high_water(), high_water_floor);
    s.queue_capacity = queue.capacity();
    s.rounds_full = rounds_full.load(std::memory_order_relaxed);
    s.rounds_degraded = rounds_degraded.load(std::memory_order_relaxed);
    s.rounds_shed = rounds_shed.load(std::memory_order_relaxed);
    s.deadline_limited_rounds =
        deadline_limited_rounds.load(std::memory_order_relaxed);
    s.deadline_misses = deadline_misses.load(std::memory_order_relaxed);
    s.fixes = fixes.load(std::memory_order_relaxed);
    s.failed_rounds = failed_rounds.load(std::memory_order_relaxed);
    return s;
  }

  /// One preparation step (push_deferred or poll_deferred) under the
  /// plan of this moment — queue occupancy and the cost model, which the
  /// step leaves unchanged — plus the accounting decided at preparation
  /// time: the `applied` replay mark, and the deadline-limited and shed
  /// counters, read off the plan the round came back with. A shed
  /// round is counted and dropped here. Returns the round when one is
  /// ready to execute. Pump-thread-only.
  template <typename Step>
  [[nodiscard]] std::optional<PendingRound> prepare(
      std::atomic<std::uint64_t>& applied, Step&& step) {
    std::optional<PendingRound> pending =
        step(policy.plan_round(queue.size(), cost));
    applied.fetch_add(1, std::memory_order_relaxed);
    if (!pending) return std::nullopt;
    if (pending->plan.deadline_limited) {
      deadline_limited_rounds.fetch_add(1, std::memory_order_relaxed);
    }
    if (!pending->plan.run) {
      rounds_shed.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    return pending;
  }

  /// Prepares the round a popped packet fires, if any, through
  /// push_deferred(). Pump-thread-only.
  [[nodiscard]] std::optional<PendingRound> prepare_item(IngestItem&& item) {
    return prepare(applied_packets, [&](const RoundPlan& plan) {
      return localizer.push_deferred(item.ap_id, std::move(item.packet), rng,
                                     plan);
    });
  }

  /// The timer-tick counterpart of prepare_item(), through
  /// poll_deferred(). Pump-thread-only.
  [[nodiscard]] std::optional<PendingRound> prepare_poll(double now_s) {
    return prepare(applied_polls, [&](const RoundPlan& plan) {
      return localizer.poll_deferred(now_s, rng, plan);
    });
  }

  /// Finishes an executed round and does the post-execution accounting
  /// (cost-model feedback, rung and deadline-miss counters, durable fix
  /// ordinal). Rung counters and the cost sample are keyed by the
  /// *planned* rung. `dt` is the measured execution cost.
  /// Pump-thread-only, in preparation order.
  [[nodiscard]] std::optional<LocationFix> complete_prepared(
      PendingRound&& pending, double dt) {
    const ApStage level = pending.plan.level;
    auto fix = localizer.complete_round(std::move(pending));
    if (fix) {
      fix->durable_round_index =
          emitted_fixes.fetch_add(1, std::memory_order_relaxed) + 1;
      fixes.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed_rounds.fetch_add(1, std::memory_order_relaxed);
    }
    // The round actually ran: fold its measured cost back into the
    // model so the next deadline decision sees it.
    cost.observe(level, dt);
    if (level == ApStage::kPrimary) {
      rounds_full.fetch_add(1, std::memory_order_relaxed);
    } else {
      rounds_degraded.fetch_add(1, std::memory_order_relaxed);
    }
    const double deadline_s = policy.config().round_deadline_s;
    if (deadline_s > 0.0 && dt > deadline_s) {
      deadline_misses.fetch_add(1, std::memory_order_relaxed);
    }
    return fix;
  }

  /// Restores a previously exported durable state (quiesced contract).
  void restore(SessionDurableState state) {
    offered.store(state.stats.offered, std::memory_order_relaxed);
    accepted.store(state.stats.accepted, std::memory_order_relaxed);
    degraded_admissions.store(state.stats.degraded_admissions,
                              std::memory_order_relaxed);
    shed_packets.store(state.stats.shed_packets, std::memory_order_relaxed);
    high_water_floor = state.stats.queue_high_water;
    rounds_full.store(state.stats.rounds_full, std::memory_order_relaxed);
    rounds_degraded.store(state.stats.rounds_degraded,
                          std::memory_order_relaxed);
    rounds_shed.store(state.stats.rounds_shed, std::memory_order_relaxed);
    deadline_limited_rounds.store(state.stats.deadline_limited_rounds,
                                  std::memory_order_relaxed);
    deadline_misses.store(state.stats.deadline_misses,
                          std::memory_order_relaxed);
    fixes.store(state.stats.fixes, std::memory_order_relaxed);
    failed_rounds.store(state.stats.failed_rounds, std::memory_order_relaxed);
    applied_packets.store(state.applied_packets, std::memory_order_relaxed);
    applied_polls.store(state.applied_polls, std::memory_order_relaxed);
    emitted_fixes.store(state.emitted_fixes, std::memory_order_relaxed);
    rng.restore(state.rng);
    cost.restore_state(state.cost);
    localizer.restore_state(std::move(state.streaming));
  }
};

SessionManager::SessionManager(LinkConfig link, SessionManagerConfig config)
    : link_(link),
      config_(config),
      clock_(config.clock != nullptr ? config.clock : &default_clock()) {
  const std::size_t threads = ThreadPool::resolve_threads(config_.num_threads);
  if (threads > 1) pool_ = std::make_shared<ThreadPool>(threads);
}

SessionManager::~SessionManager() = default;

std::shared_ptr<SessionManager::Session> SessionManager::make_session(
    const SessionConfig& config) const {
  SPOTFI_EXPECTS(config.aps.size() >= 2,
                 "a session needs at least two APs");
  StreamingConfig streaming = config.streaming;
  // One pool for every tenant: a session never spawns threads of its
  // own, regardless of what its ServerConfig asked for.
  streaming.server.shared_pool = pool_;
  streaming.server.num_threads = pool_ ? pool_->size() : 1;

  auto session = std::make_shared<Session>(link_, config, std::move(streaming));
  for (const ArrayPose& pose : config.aps) {
    (void)session->localizer.add_ap(pose);
  }
  return session;
}

SessionId SessionManager::open_session(const SessionConfig& config) {
  auto session = make_session(config);
  const std::lock_guard<std::mutex> lock(mutex_);
  reap_draining_locked();
  session->id = next_id_++;
  sessions_.push_back(std::move(session));
  return sessions_.back()->id;
}

void SessionManager::close_session(SessionId id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id >= next_id_) {
    throw ContractViolation("close_session: unknown session id " +
                            std::to_string(id));
  }
  const auto it =
      std::find_if(sessions_.begin(), sessions_.end(),
                   [id](const auto& s) { return s->id == id; });
  if (it != sessions_.end()) {
    // A racing final pump() may still hold a reference; move the session
    // to the draining list and retire its stats only once that
    // reference drops, so late round counters are never lost.
    draining_.push_back(std::move(*it));
    sessions_.erase(it);
  }
  // else: the id was issued but is already closed — idempotent no-op.
  reap_draining_locked();
}

void SessionManager::reap_draining_locked() {
  auto it = draining_.begin();
  while (it != draining_.end()) {
    if (it->use_count() == 1) {
      fold_stats(retired_, (*it)->snapshot());
      it = draining_.erase(it);
    } else {
      ++it;
    }
  }
}

std::shared_ptr<SessionManager::Session> SessionManager::find(
    SessionId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it =
      std::find_if(sessions_.begin(), sessions_.end(),
                   [id](const auto& s) { return s->id == id; });
  if (it == sessions_.end()) {
    throw ContractViolation("unknown session id " + std::to_string(id));
  }
  return *it;
}

AdmissionVerdict SessionManager::offer(SessionId id, std::size_t ap_id,
                                       CsiPacket packet) {
  IngestItem item;
  item.ap_id = ap_id;
  item.packet = std::move(packet);
  return offer_or_return(id, item);
}

AdmissionVerdict SessionManager::offer_or_return(SessionId id,
                                                 IngestItem& item) {
  const auto session = find(id);
  session->offered.fetch_add(1, std::memory_order_relaxed);
  // Grade the entitlement on the depth observed *before* the push, then
  // let the queue itself arbitrate "full": try_push failure is the shed
  // signal, so admission can never block and never lies about capacity.
  // On failure try_push has not touched `item` — that guarantee is what
  // lets the transport receiver retry a refused frame without copying.
  AdmissionVerdict verdict = session->policy.admit(session->queue.size());
  if (!session->queue.try_push(std::move(item))) {
    verdict.kind = AdmissionVerdict::Kind::kShed;
    verdict.reason = "ingest queue full";
    session->shed_packets.fetch_add(1, std::memory_order_relaxed);
    return verdict;
  }
  session->accepted.fetch_add(1, std::memory_order_relaxed);
  if (verdict.kind == AdmissionVerdict::Kind::kDegraded) {
    session->degraded_admissions.fetch_add(1, std::memory_order_relaxed);
  }
  return verdict;
}

/// One prepared round of a drain's batch. The drain's caller holds a
/// shared_ptr to `session` across all three phases, so a racing
/// close_session() cannot retire it mid-batch.
struct SessionManager::BatchedRound {
  Session* session = nullptr;
  PendingRound round;
  double dt = 0.0;
};

std::vector<LocationFix> SessionManager::pump(SessionId id) {
  const auto session = find(id);
  std::vector<LocationFix> out;
  (void)drain({&session, 1}, &out);
  return out;
}

std::optional<LocationFix> SessionManager::poll(SessionId id, double now_s) {
  const auto session = find(id);
  return run_prepared(*session, session->prepare_poll(now_s));
}

std::size_t SessionManager::pump_all() {
  std::vector<std::shared_ptr<Session>> live;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    live = sessions_;
  }
  return drain(live, nullptr);
}

std::size_t SessionManager::drain(
    std::span<const std::shared_ptr<Session>> sessions,
    std::vector<LocationFix>* out) {
  // Phase 1 — prepare, serially in the given order: drain every queue,
  // planning each round and popping its captures and forking its Rng
  // streams on this thread. Everything order-sensitive happens here, so
  // phases 2 and 3 cannot perturb any session's deterministic stream.
  std::vector<BatchedRound> batch;
  for (const auto& session : sessions) {
    while (auto item = session->queue.try_pop()) {
      if (auto pending = session->prepare_item(std::move(*item))) {
        batch.push_back({session.get(), std::move(*pending)});
      }
    }
  }
  return run_batch(batch, out);
}

std::optional<LocationFix> SessionManager::run_prepared(
    Session& session, std::optional<PendingRound> pending) {
  std::vector<BatchedRound> batch;
  if (pending) batch.push_back({&session, std::move(*pending)});
  std::vector<LocationFix> fixes;
  if (run_batch(batch, &fixes) == 0) return std::nullopt;
  return std::move(fixes.front());
}

std::size_t SessionManager::run_batch(std::vector<BatchedRound>& batch,
                                      std::vector<LocationFix>* out) {
  // Phase 2 — execute the batch: each prepared round is a
  // self-contained pure function of its captures and forked streams, so
  // rounds from different tenants (or several rounds of one tenant) run
  // concurrently on the pool, sharing its lane arenas and the process-
  // wide steering-table cache.
  const auto execute = [&](std::size_t i) {
    BatchedRound& r = batch[i];
    const double t0 = clock_->now_s();
    r.session->localizer.execute_round(r.round);
    r.dt = clock_->now_s() - t0;
  };
  if (pool_ && batch.size() > 1) {
    pool_->parallel_for(batch.size(), execute);
    batched_rounds_.fetch_add(batch.size(), std::memory_order_relaxed);
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) execute(i);
  }

  // Phase 3 — complete, serially in preparation order: fix assembly,
  // tracker updates, cost-model feedback, and durable fix ordinals land
  // in each session's own order, whatever else shared the batch.
  std::size_t fired = 0;
  for (BatchedRound& r : batch) {
    auto fix = r.session->complete_prepared(std::move(r.round), r.dt);
    if (!fix) continue;
    ++fired;
    if (out != nullptr) out->push_back(std::move(*fix));
  }
  return fired;
}

SessionStats SessionManager::session_stats(SessionId id) const {
  return find(id)->snapshot();
}

SessionStats SessionManager::global_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SessionStats total = retired_;
  for (const auto& session : sessions_) {
    fold_stats(total, session->snapshot());
  }
  // Closed sessions whose final pump() has not let go yet: their
  // counters are final-or-growing, never folded into retired_ until the
  // last reference drops, so counting their live snapshot here keeps
  // the global totals exact at every instant.
  for (const auto& session : draining_) {
    fold_stats(total, session->snapshot());
  }
  return total;
}

const StreamingLocalizer& SessionManager::localizer(SessionId id) const {
  return find(id)->localizer;
}

std::size_t SessionManager::session_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

std::vector<SessionId> SessionManager::session_ids() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SessionId> ids;
  ids.reserve(sessions_.size());
  for (const auto& session : sessions_) ids.push_back(session->id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

SessionId SessionManager::next_session_id() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_;
}

void SessionManager::advance_session_ids(SessionId next) {
  const std::lock_guard<std::mutex> lock(mutex_);
  next_id_ = std::max(next_id_, next);
}

SessionStats SessionManager::retired_stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SessionStats total = retired_;
  for (const auto& session : draining_) {
    fold_stats(total, session->snapshot());
  }
  return total;
}

void SessionManager::restore_retired_stats(const SessionStats& retired) {
  const std::lock_guard<std::mutex> lock(mutex_);
  retired_ = retired;
}

void SessionManager::reopen_session(SessionId id, const SessionConfig& config) {
  SPOTFI_EXPECTS(id != 0, "reopen_session: id 0 is never issued");
  auto session = make_session(config);
  const std::lock_guard<std::mutex> lock(mutex_);
  reap_draining_locked();
  const bool live =
      std::any_of(sessions_.begin(), sessions_.end(),
                  [id](const auto& s) { return s->id == id; }) ||
      std::any_of(draining_.begin(), draining_.end(),
                  [id](const auto& s) { return s->id == id; });
  SPOTFI_EXPECTS(!live, "reopen_session: id collides with a live session");
  session->id = id;
  sessions_.push_back(std::move(session));
  // Ids issued by any previous incarnation stay burned forever.
  next_id_ = std::max(next_id_, id + 1);
}

SessionDurableState SessionManager::export_session_state(SessionId id) const {
  const auto session = find(id);
  SessionDurableState out;
  out.id = session->id;
  out.stats = session->snapshot();
  out.applied_packets =
      session->applied_packets.load(std::memory_order_relaxed);
  out.applied_polls = session->applied_polls.load(std::memory_order_relaxed);
  out.emitted_fixes = session->emitted_fixes.load(std::memory_order_relaxed);
  out.rng = session->rng.state();
  out.cost = session->cost.export_state();
  out.streaming = session->localizer.export_state();
  return out;
}

void SessionManager::restore_session_state(SessionId id,
                                           SessionDurableState state) {
  SPOTFI_EXPECTS(state.id == id,
                 "restore_session_state: state belongs to another session");
  find(id)->restore(std::move(state));
}

std::optional<LocationFix> SessionManager::replay_packet(
    SessionId id, std::size_t ap_id, CsiPacket packet, bool count_admission) {
  const auto session = find(id);
  if (count_admission) {
    session->offered.fetch_add(1, std::memory_order_relaxed);
    session->accepted.fetch_add(1, std::memory_order_relaxed);
  }
  IngestItem item;
  item.ap_id = ap_id;
  item.packet = std::move(packet);
  return run_prepared(*session, session->prepare_item(std::move(item)));
}

std::uint64_t SessionManager::applied_packets(SessionId id) const {
  return find(id)->applied_packets.load(std::memory_order_relaxed);
}

std::uint64_t SessionManager::applied_polls(SessionId id) const {
  return find(id)->applied_polls.load(std::memory_order_relaxed);
}

void SessionManager::fold_stats(SessionStats& into, const SessionStats& from) {
  into.offered += from.offered;
  into.accepted += from.accepted;
  into.degraded_admissions += from.degraded_admissions;
  into.shed_packets += from.shed_packets;
  into.queue_high_water =
      std::max(into.queue_high_water, from.queue_high_water);
  into.queue_capacity = std::max(into.queue_capacity, from.queue_capacity);
  into.rounds_full += from.rounds_full;
  into.rounds_degraded += from.rounds_degraded;
  into.rounds_shed += from.rounds_shed;
  into.deadline_limited_rounds += from.deadline_limited_rounds;
  into.deadline_misses += from.deadline_misses;
  into.fixes += from.fixes;
  into.failed_rounds += from.failed_rounds;
}

}  // namespace spotfi
