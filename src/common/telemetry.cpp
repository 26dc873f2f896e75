#include "common/telemetry.hpp"

#include "common/clock.hpp"

namespace spotfi {

const char* to_string(StagePhase phase) {
  switch (phase) {
    case StagePhase::kSanitize:
      return "sanitize";
    case StagePhase::kSubspace:
      return "subspace";
    case StagePhase::kSpectrum:
      return "spectrum";
    case StagePhase::kCluster:
      return "cluster";
    case StagePhase::kLocalize:
      return "localize";
  }
  return "unknown";
}

double stage_now_s() {
  // A dedicated monotonic clock, never the session Clock: test sessions
  // run on FakeClock whose auto-advance steps time on every read, so
  // telemetry reads through the session clock would change deadline
  // behavior. MonotonicClock is stateless and thread-safe.
  static const MonotonicClock clock;
  return clock.now_s();
}

}  // namespace spotfi
