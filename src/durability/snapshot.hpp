// Periodic snapshots of the full session-layer state (DESIGN.md §14).
//
// A snapshot bounds recovery time: instead of replaying the journal
// from the beginning, recovery loads the latest valid snapshot and
// replays only the WAL suffix past it. Each snapshot captures every
// live session's SessionDurableState, the manager's id horizon and
// retired-stats aggregate, and every bound TransportReceiver's epoch /
// cumulative-ack / reorder window — so a reconnecting sender resumes
// from the recovered ack and never redelivers.
//
// Publication is atomic: the snapshot is written to a temp file and
// rename()d into place, so a crash mid-write leaves a stray .tmp that
// recovery ignores, never a half-snapshot under the real name. The
// whole payload is checksummed; a corrupt snapshot is discarded and
// recovery falls back to the previous one (and from there to a full
// journal replay), counting every discard.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "durability/crash.hpp"
#include "durability/wal.hpp"

namespace spotfi {

/// Bumped whenever the payload layout changes. Loading discards a file
/// of any other version (falling back to an older snapshot, then to
/// full journal replay) rather than mis-decoding it.
inline constexpr std::uint32_t kSnapshotVersion = 3;

/// Everything a cold process needs to rebuild the session layer.
struct SnapshotData {
  /// Monotone snapshot ordinal (also the file name), strictly above any
  /// snapshot the previous incarnation published.
  std::uint64_t seq = 0;
  /// Journal committed-bytes mark where recovery starts scanning:
  /// records below it are inside this snapshot's state, so the scan
  /// (and its memory) is bounded by the journal written since the
  /// snapshot, not since deployment. A cadence snapshot records the
  /// mark at the *head* of the pump()/poll() batch that tripped it, so
  /// the batch's own fix records stay inside the scanned suffix and can
  /// be re-emitted after a crash between publish and the caller
  /// consuming the batch. Either mark is lowered to the oldest packet
  /// any session still holds queued, since the snapshot does not carry
  /// queued packets. 0 = full scan.
  std::uint64_t journal_bytes = 0;
  /// SessionManager id horizon at capture time.
  SessionId next_session_id = 1;
  /// Closed-session aggregate at capture time.
  SessionStats retired;
  std::vector<SessionDurableState> sessions;
  struct ReceiverEntry {
    std::uint64_t receiver_id = 0;
    ReceiverRecoveryState state;
  };
  std::vector<ReceiverEntry> receivers;
};

/// Serializes `data` into `dir` as snapshot-<seq>.snap via temp + rename
/// and prunes to the newest `keep` snapshots (stray .tmp files are swept
/// too). Returns the published path. `fsync` additionally syncs the
/// temp file before the rename and the directory after it, extending
/// the publish guarantee from process crashes to power loss
/// (DurabilityConfig::fsync).
Expected<std::string, DurabilityError> write_snapshot(
    const std::string& dir, const SnapshotData& data, std::size_t keep,
    CrashInjector* crash = nullptr, bool fsync = false);

struct SnapshotLoadResult {
  /// The newest snapshot that verified and decoded; nullopt = none
  /// (fresh start or every candidate corrupt — full journal replay).
  std::optional<SnapshotData> data;
  /// Corrupt/torn snapshot files skipped on the way down.
  std::uint64_t discarded = 0;
  /// Highest snapshot seq present in the directory (valid or not), so a
  /// recovered writer never reuses a burned ordinal.
  std::uint64_t max_seq_seen = 0;
};

/// Walks `dir`'s snapshots newest-first and returns the first one whose
/// checksum verifies and whose payload decodes. A missing directory is
/// a fresh start, not an error.
[[nodiscard]] SnapshotLoadResult load_latest_snapshot(const std::string& dir);

}  // namespace spotfi
