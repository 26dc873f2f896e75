#include "durability/durability.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "transport/transport.hpp"

namespace spotfi {
namespace {

/// Per-session replay skip marks derived from the snapshot: journal
/// records at or below a mark are already inside the restored state.
struct SkipMarks {
  std::uint64_t applied_packets = 0;
  std::uint64_t applied_polls = 0;
  /// Accepted count at snapshot time — packets with index at or below
  /// it were admission-counted before the snapshot (they may still need
  /// replaying if they sat in the queue, hence a separate mark).
  std::uint64_t counted_through = 0;
  std::uint64_t emitted_fixes = 0;
};

/// oldest_queued_ value of a session with no packet in its queue.
constexpr std::uint64_t kNoQueuedPacket =
    std::numeric_limits<std::uint64_t>::max();

}  // namespace

DurableSessionManager::DurableSessionManager(
    LinkConfig link, SessionManagerConfig manager_config,
    DurabilityConfig durability)
    : manager_(std::move(link), manager_config), config_(std::move(durability)) {
  if (!config_.enabled) recovered_ = true;  // pass-through needs no recover()
}

std::string DurableSessionManager::journal_path() const {
  return (std::filesystem::path(config_.dir) / "journal.wal").string();
}

void DurableSessionManager::note_append(
    const Expected<std::uint64_t, DurabilityError>& result) {
  if (!result.has_value()) ++journal_failures_;
}

RecoveryReport DurableSessionManager::recover(const SessionConfigFn& config_of) {
  RecoveryReport report;
  if (!config_.enabled) {
    recovered_ = true;
    return report;
  }
  SPOTFI_EXPECTS(!recovered_, "recover() must run exactly once");
  SPOTFI_EXPECTS(manager_.session_count() == 0,
                 "recover() requires a fresh manager");

  // 1. Newest valid snapshot (falling back across corrupt ones).
  SnapshotLoadResult loaded = load_latest_snapshot(config_.dir);
  report.snapshots_discarded = loaded.discarded;
  snapshot_seq_ = loaded.max_seq_seen;  // never reuse a burned ordinal

  std::unordered_map<SessionId, SkipMarks> marks;
  std::unordered_set<SessionId> live;
  SessionId snapshot_horizon = 1;
  std::uint64_t scan_from = 0;

  if (loaded.data.has_value()) {
    SnapshotData& snap = *loaded.data;
    report.snapshot_loaded = true;
    report.snapshot_seq = snap.seq;
    scan_from = snap.journal_bytes;
    snapshot_horizon = snap.next_session_id;
    manager_.advance_session_ids(snap.next_session_id);
    manager_.restore_retired_stats(snap.retired);
    for (SessionDurableState& state : snap.sessions) {
      const SessionId id = state.id;
      SkipMarks m;
      m.applied_packets = state.applied_packets;
      m.applied_polls = state.applied_polls;
      m.counted_through = state.stats.accepted;
      m.emitted_fixes = state.emitted_fixes;
      manager_.reopen_session(id, config_of(id));
      manager_.restore_session_state(id, std::move(state));
      marks.emplace(id, m);
      live.insert(id);
      ++report.sessions_recovered;
    }
    for (SnapshotData::ReceiverEntry& entry : snap.receivers) {
      RecoveredReceiver rec;
      rec.next_expected = entry.state.next_expected;
      rec.state = std::move(entry.state);
      recovered_receivers_.emplace(entry.receiver_id, std::move(rec));
    }
  }

  // 2. Scan the journal — from the snapshot's scan mark, so scan cost
  //    and memory are bounded by the journal written since it — and cut
  //    off the torn tail before replaying: nothing past the first bad
  //    byte is ever applied.
  const std::string path = journal_path();
  WalScan scan = scan_wal(path, scan_from);
  report.journal_bytes_skipped = scan.skipped_bytes;
  report.tail_error = scan.tail_error;
  bool journal_usable = true;
  if (scan.file_bytes > scan.valid_bytes) {
    report.journal_bytes_truncated = scan.file_bytes - scan.valid_bytes;
    const auto truncated =
        truncate_wal(path, scan.valid_bytes, config_.crash);
    if (!truncated.has_value()) {
      // Could not cut the tail: replay the valid prefix from memory but
      // refuse to append behind an untrimmed torn tail.
      report.tail_error = truncated.error();
      journal_usable = false;
    }
  }

  // 3. Replay the suffix through the deterministic pipeline. Digests of
  //    regenerated fixes are checked against the journaled kFix records
  //    (the byte-identical witness).
  std::unordered_map<SessionId, std::unordered_map<std::uint64_t, std::uint64_t>>
      regenerated;
  const auto note_fix = [&](SessionId id, std::optional<LocationFix> fix) {
    if (!fix.has_value()) return;
    regenerated[id][fix->durable_round_index] = fix_digest(*fix);
    report.recovered_fixes.emplace_back(id, std::move(*fix));
  };

  for (WalRecord& record : scan.records) {
    switch (record.type) {
      case WalRecordType::kSessionOpen: {
        const auto rec = decode_wal_open(record.payload);
        if (!rec.has_value()) break;
        const SessionId id = rec->session;
        if (live.contains(id)) break;  // already restored from snapshot
        if (id < snapshot_horizon) break;  // opened and closed pre-snapshot
        manager_.reopen_session(id, config_of(id));
        marks.emplace(id, SkipMarks{});
        live.insert(id);
        ++report.sessions_recovered;
        ++report.records_replayed;
        break;
      }
      case WalRecordType::kPacket: {
        auto rec = decode_wal_packet(record.payload);
        if (!rec.has_value()) break;
        if (!live.contains(rec->session)) break;
        if (rec->receiver_id != 0) {
          // Journal-proven delivery: the recovered ack never retreats
          // below it, so the reconnecting sender cannot redeliver.
          RecoveredReceiver& rr = recovered_receivers_[rec->receiver_id];
          rr.next_expected = std::max(rr.next_expected, rec->seq + 1);
        }
        const SkipMarks& m = marks[rec->session];
        if (rec->index <= m.applied_packets) break;  // inside the snapshot
        note_fix(rec->session,
                 manager_.replay_packet(rec->session, rec->ap_id,
                                        std::move(rec->packet),
                                        rec->index > m.counted_through));
        ++report.packets_replayed;
        ++report.records_replayed;
        break;
      }
      case WalRecordType::kPoll: {
        const auto rec = decode_wal_poll(record.payload);
        if (!rec.has_value()) break;
        if (!live.contains(rec->session)) break;
        if (rec->index <= marks[rec->session].applied_polls) break;
        note_fix(rec->session, manager_.poll(rec->session, rec->now_s));
        ++report.polls_replayed;
        ++report.records_replayed;
        break;
      }
      case WalRecordType::kFix: {
        const auto rec = decode_wal_fix(record.payload);
        if (!rec.has_value()) break;
        if (!live.contains(rec->session)) break;
        if (rec->index <= marks[rec->session].emitted_fixes) {
          // Already inside the restored snapshot, so replay will not
          // regenerate it — but the crashed pump() may have died before
          // the caller consumed it (kSnapshotPublished sits between the
          // append and the return). Re-emit it from the journaled
          // values; consumers dedup by durable_round_index.
          LocationFix fix;
          fix.raw = rec->raw;
          fix.tracked = rec->tracked;
          fix.time_s = rec->time_s;
          fix.degraded = rec->degraded;
          fix.durable_round_index = rec->index;
          report.recovered_fixes.emplace_back(rec->session, std::move(fix));
          ++report.records_replayed;
          break;
        }
        ++report.records_replayed;
        const auto& digests = regenerated[rec->session];
        const auto it = digests.find(rec->index);
        if (it == digests.end() || it->second != rec->digest) {
          ++report.fix_mismatches;
        }
        break;
      }
      case WalRecordType::kSessionClose: {
        const auto rec = decode_wal_close(record.payload);
        if (!rec.has_value()) break;
        if (!live.contains(rec->session)) break;
        manager_.close_session(rec->session);
        live.erase(rec->session);
        ++report.records_replayed;
        break;
      }
    }
  }

  // 4. Reopen the journal for appending behind the valid prefix.
  if (journal_usable) {
    std::error_code ec;
    std::filesystem::create_directories(config_.dir, ec);
    auto writer = std::make_unique<WalWriter>(path, config_.crash, config_.io,
                                              config_.fsync);
    if (writer->ok()) {
      wal_ = std::move(writer);
    } else {
      ++journal_failures_;
    }
  } else {
    ++journal_failures_;
  }
  recovered_ = true;
  return report;
}

SessionId DurableSessionManager::open_session(const SessionConfig& config) {
  if (!config_.enabled) return manager_.open_session(config);
  const std::lock_guard<std::mutex> lock(wal_mutex_);
  SPOTFI_EXPECTS(recovered_, "durable manager used before recover()");
  const SessionId id = manager_.open_session(config);
  if (wal_ != nullptr) {
    note_append(wal_->append_open({id}));
  } else {
    ++journal_failures_;
  }
  return id;
}

void DurableSessionManager::close_session(SessionId id) {
  if (!config_.enabled) {
    manager_.close_session(id);
    return;
  }
  const std::lock_guard<std::mutex> lock(wal_mutex_);
  SPOTFI_EXPECTS(recovered_, "durable manager used before recover()");
  // Journal before effect, like packets: a crash between the two then
  // replays the close (idempotent) instead of resurrecting a session
  // whose caller already observed the close complete.
  if (wal_ != nullptr) {
    note_append(wal_->append_close({id}));
  } else {
    ++journal_failures_;
  }
  manager_.close_session(id);
  oldest_queued_.erase(id);
}

AdmissionVerdict DurableSessionManager::offer_journaled_locked(
    SessionId id, IngestItem& item, std::uint64_t receiver_id,
    std::uint64_t seq) {
  // The accepted ordinal this packet gets if admitted. Safe to read
  // ahead of the offer: accepted is only ever advanced by this
  // (journal-serialized) producer path.
  const std::uint64_t index = manager_.session_stats(id).accepted + 1;
  if (wal_ != nullptr) {
    ByteWriter w = wal_->stage();
    encode_wal_packet(w, id, index, item.ap_id, receiver_id, seq,
                      item.packet);
  }
  const AdmissionVerdict verdict = manager_.offer_or_return(id, item);
  if (verdict.admitted()) {
    if (wal_ != nullptr) {
      // The record lands at the journal tip; when the queue held none of
      // this session's packets, it is now the oldest one queued.
      std::uint64_t& oldest =
          oldest_queued_.try_emplace(id, kNoQueuedPacket).first->second;
      if (oldest == kNoQueuedPacket) oldest = wal_->committed_bytes();
      note_append(wal_->commit_staged(WalRecordType::kPacket));
    } else {
      ++journal_failures_;
    }
  }
  return verdict;
}

AdmissionVerdict DurableSessionManager::offer(SessionId id, std::size_t ap_id,
                                              CsiPacket packet) {
  if (!config_.enabled) return manager_.offer(id, ap_id, std::move(packet));
  const std::lock_guard<std::mutex> lock(wal_mutex_);
  SPOTFI_EXPECTS(recovered_, "durable manager used before recover()");
  IngestItem item;
  item.ap_id = ap_id;
  item.packet = std::move(packet);
  return offer_journaled_locked(id, item, /*receiver_id=*/0, /*seq=*/0);
}

std::vector<LocationFix> DurableSessionManager::pump(SessionId id) {
  if (!config_.enabled) return manager_.pump(id);
  // The lock spans the manager pump too (like poll): a cadence snapshot
  // on another session's thread reads *this* session's state, so the
  // pump must not mutate it concurrently.
  const std::lock_guard<std::mutex> lock(wal_mutex_);
  SPOTFI_EXPECTS(recovered_, "durable manager used before recover()");
  const std::uint64_t batch_start = wal_ != nullptr ? wal_->committed_bytes() : 0;
  std::vector<LocationFix> fixes = manager_.pump(id);
  // The pump drained the whole queue (offers wait on wal_mutex_).
  if (const auto it = oldest_queued_.find(id); it != oldest_queued_.end()) {
    it->second = kNoQueuedPacket;
  }
  for (const LocationFix& fix : fixes) journal_fix(id, fix);
  // Cadence only after the whole batch is journaled: a snapshot taken
  // mid-batch would cover fixes whose records are not yet appended, and
  // a crash right after publish would lose them for good.
  maybe_snapshot_locked(batch_start);
  return fixes;
}

std::optional<LocationFix> DurableSessionManager::poll(SessionId id,
                                                       double now_s) {
  if (!config_.enabled) return manager_.poll(id, now_s);
  const std::lock_guard<std::mutex> lock(wal_mutex_);
  SPOTFI_EXPECTS(recovered_, "durable manager used before recover()");
  const std::uint64_t batch_start = wal_ != nullptr ? wal_->committed_bytes() : 0;
  std::optional<LocationFix> fix = manager_.poll(id, now_s);
  const std::uint64_t index = manager_.applied_polls(id);
  if (wal_ != nullptr) {
    note_append(wal_->append_poll({id, index, now_s}));
  } else {
    ++journal_failures_;
  }
  if (fix.has_value()) journal_fix(id, *fix);
  maybe_snapshot_locked(batch_start);
  return fix;
}

TransportSink DurableSessionManager::make_sink(SessionId id,
                                               std::uint64_t receiver_id) {
  if (!config_.enabled) return make_session_sink(manager_, id);
  SPOTFI_EXPECTS(receiver_id != 0, "receiver_id 0 is reserved for direct feeds");
  return [this, id, receiver_id](std::size_t ap_id, CsiPacket& packet) {
    const std::lock_guard<std::mutex> lock(wal_mutex_);
    SPOTFI_EXPECTS(recovered_, "durable sink used before recover()");
    std::uint64_t seq = 0;
    if (const auto it = receivers_.find(receiver_id);
        it != receivers_.end() && it->second != nullptr) {
      seq = it->second->delivering_seq();
    }
    IngestItem item;
    item.ap_id = ap_id;
    item.packet = std::move(packet);
    if (!offer_journaled_locked(id, item, receiver_id, seq).admitted()) {
      // Shed at the session queue: hand the payload back untouched so
      // the receiver retries later; nothing was journaled.
      packet = std::move(item.packet);
      return false;
    }
    return true;
  };
}

void DurableSessionManager::bind_receiver(std::uint64_t receiver_id,
                                          TransportReceiver* receiver) {
  SPOTFI_EXPECTS(receiver_id != 0, "receiver_id 0 is reserved for direct feeds");
  const std::lock_guard<std::mutex> lock(wal_mutex_);
  receivers_[receiver_id] = receiver;
}

bool DurableSessionManager::restore_receiver(std::uint64_t receiver_id,
                                             TransportReceiver& receiver) {
  const std::lock_guard<std::mutex> lock(wal_mutex_);
  const auto it = recovered_receivers_.find(receiver_id);
  if (it == recovered_receivers_.end()) return false;
  receiver.restore_recovery_state(std::move(it->second.state),
                                  it->second.next_expected);
  recovered_receivers_.erase(it);
  receivers_[receiver_id] = &receiver;
  return true;
}

void DurableSessionManager::journal_fix(SessionId id, const LocationFix& fix) {
  if (wal_ != nullptr) {
    note_append(wal_->append_fix({id, fix.durable_round_index, fix_digest(fix),
                                  fix.time_s, fix.degraded, fix.raw,
                                  fix.tracked}));
  } else {
    ++journal_failures_;
  }
  ++fixes_since_snapshot_;
}

void DurableSessionManager::maybe_snapshot_locked(
    std::uint64_t batch_start_bytes) {
  if (config_.snapshot_every_fixes == 0 ||
      fixes_since_snapshot_ < config_.snapshot_every_fixes) {
    return;
  }
  fixes_since_snapshot_ = 0;
  const auto result = snapshot_locked(batch_start_bytes);
  if (!result.has_value()) ++journal_failures_;
}

Expected<std::string, DurabilityError> DurableSessionManager::snapshot() {
  const std::lock_guard<std::mutex> lock(wal_mutex_);
  SPOTFI_EXPECTS(config_.enabled, "snapshot() requires durability enabled");
  SPOTFI_EXPECTS(recovered_, "durable manager used before recover()");
  // Quiesced: no batch is in flight, so the scan mark is the journal tip.
  return snapshot_locked(wal_ != nullptr ? wal_->committed_bytes() : 0);
}

Expected<std::string, DurabilityError> DurableSessionManager::snapshot_locked(
    std::uint64_t journal_mark) {
  SnapshotData data;
  data.seq = ++snapshot_seq_;
  // A snapshot holds no queued packets, so recovery must replay every
  // one of them: the scan starts at or below the oldest still queued.
  for (const auto& entry : oldest_queued_) {
    journal_mark = std::min(journal_mark, entry.second);
  }
  data.journal_bytes = journal_mark;
  data.next_session_id = manager_.next_session_id();
  data.retired = manager_.retired_stats();
  for (const SessionId id : manager_.session_ids()) {
    data.sessions.push_back(manager_.export_session_state(id));
  }
  for (const auto& [receiver_id, receiver] : receivers_) {
    if (receiver == nullptr) continue;
    data.receivers.push_back({receiver_id, receiver->export_recovery_state()});
  }
  // Receiver iteration order is a hash map's; sort so the snapshot
  // bytes are a pure function of the state.
  std::sort(data.receivers.begin(), data.receivers.end(),
            [](const auto& a, const auto& b) {
              return a.receiver_id < b.receiver_id;
            });
  const auto result =
      write_snapshot(config_.dir, data, config_.snapshots_to_keep,
                     config_.crash, config_.fsync);
  if (result.has_value()) ++snapshots_written_;
  return result;
}

}  // namespace spotfi
