// Deterministic crash injection for the durability subsystem.
//
// Every durability I/O boundary calls into an injectable CrashPoint
// hook, the way the PR-7 chaos harness injects link faults: the test
// arms one (point, nth-visit) pair from a seed, runs the scenario, and
// the "process" dies — a CrashInjected exception unwinds out of the
// data path, the harness discards every in-memory object, and recovery
// starts from the files alone. Torn points additionally write a seeded
// prefix of the pending bytes before dying, modelling a power cut mid
// write(). The same seed reproduces the same crash exactly, so a CI
// failure is replayable from its printed (point, nth, seed) triple.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>

namespace spotfi {

/// Every durability I/O boundary. The harness drives every one of them.
enum class CrashPoint : std::uint8_t {
  kJournalAppendStart = 0,  ///< before any record byte reaches the file
  kJournalAppendTorn = 1,   ///< a prefix of the record reaches the file
  kJournalAppendDone = 2,   ///< record durable, before effects surface
  kSnapshotBegin = 3,       ///< before the temp snapshot file is created
  kSnapshotTorn = 4,        ///< a prefix of the temp snapshot is written
  kSnapshotWritten = 5,     ///< temp complete, before the publish rename
  kSnapshotPublished = 6,   ///< renamed, before old snapshots are pruned
  kRecoveryTruncate = 7,    ///< before recovery truncates a torn tail
};

inline constexpr std::size_t kCrashPointCount = 8;

[[nodiscard]] const char* to_string(CrashPoint point);

/// The simulated process death. Harnesses catch it at the top of the
/// drive loop and must then discard every in-memory object that touched
/// the durable state — recovery starts from the files.
class CrashInjected : public std::runtime_error {
 public:
  explicit CrashInjected(CrashPoint point);
  [[nodiscard]] CrashPoint point() const { return point_; }

 private:
  CrashPoint point_;
};

/// Counts visits to every crash point and, when armed, kills the
/// process at the nth visit of one of them. Not owned by the durability
/// objects (the test owns it and passes a pointer via DurabilityConfig);
/// null pointer = production, zero overhead.
class CrashInjector {
 public:
  /// Arms a crash at the `nth_visit` (1-based) of `point`. The seed
  /// drives the torn-write prefix length at torn points.
  void arm(CrashPoint point, std::uint64_t nth_visit, std::uint64_t seed);
  void disarm() { armed_ = false; }
  [[nodiscard]] bool armed() const { return armed_; }

  /// Records one visit; throws CrashInjected on the armed visit.
  void reach(CrashPoint point);

  /// Torn-point variant: records the visit and, on the armed one,
  /// returns the seeded number of bytes (in [0, pending_bytes)) the
  /// caller must still write before throwing CrashInjected itself —
  /// the torn prefix has to reach the file to model a mid-write cut.
  [[nodiscard]] std::optional<std::size_t> reach_torn(
      CrashPoint point, std::size_t pending_bytes);

  [[nodiscard]] std::uint64_t visits(CrashPoint point) const {
    return visits_[static_cast<std::size_t>(point)];
  }
  void reset_visits() { visits_.fill(0); }

 private:
  [[nodiscard]] bool due(CrashPoint point) const;

  std::array<std::uint64_t, kCrashPointCount> visits_{};
  bool armed_ = false;
  CrashPoint point_ = CrashPoint::kJournalAppendStart;
  std::uint64_t nth_ = 0;
  std::uint64_t seed_ = 0;
};

}  // namespace spotfi
