// Measurement helpers of the closed-loop benchmark: clocks, the tail
// percentile rule, the fix-stream digest, round accounting, and the
// in-memory span recorder behind the traced run. Apart from the
// journal's FNV-1a, nothing here uses the library; the workloads
// (workloads.cpp) wire it to the public API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

/// Monotonic wall time [s].
[[nodiscard]] double wall_now_s();
/// CPU time of the whole process, all threads [s].
[[nodiscard]] double cpu_now_s();

// -- tail percentile ------------------------------------------------------

/// Order statistics beyond the `p`-th percentile of `n` samples under
/// linear interpolation (common/stats.hpp's percentile()): the
/// percentile sits at rank p/100 * (n - 1), and every sample whose index
/// exceeds that rank is beyond it.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

struct TailChoice {
  double percentile = 50.0;
  /// Samples strictly beyond that percentile.
  std::size_t beyond = 0;
};

/// The highest percentile of a fixed ladder (99.9, 99.5, then every
/// whole percentile from 99 down to 50) that leaves at least
/// `min_beyond` samples beyond it. Falls back to the median when even
/// p50 leaves fewer.
[[nodiscard]] TailChoice choose_tail(std::size_t n, std::size_t min_beyond = 10);

// -- fix-stream digest ------------------------------------------------------

/// FNV-1a (the journal's, durability/codec.hpp) over raw bytes. Doubles
/// are digested by bit pattern, so two streams agree only when every
/// value is bit-identical.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n);

  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>, "digest plain values only");
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    add_bytes(bytes, sizeof(T));
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }
  /// 16 lowercase hex digits.
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// -- round accounting -------------------------------------------------------

/// Expected rounds are one per tenant per packet group sent. A round
/// fails when it emitted no fix, or when it emitted one that crash
/// recovery could not reproduce from the journal (a mismatch is counted
/// among the emitted fixes too, so it is added back as a failure).
struct RoundLedger {
  std::uint64_t expected = 0;
  std::uint64_t emitted = 0;
  std::uint64_t mismatched = 0;

  [[nodiscard]] std::uint64_t failed() const;
  [[nodiscard]] double fail_frac() const;
};

// -- spans --------------------------------------------------------------------

enum class SpanName : std::uint8_t {
  kOffer,         ///< SessionManager::offer
  kPump,          ///< SessionManager/DurableSessionManager::pump
  kPumpAll,       ///< SessionManager::pump_all
  kSend,          ///< TransportSender::send
  kSenderTick,    ///< TransportSender::tick
  kReceiverTick,  ///< TransportReceiver::tick
  kSink,          ///< the durable TransportSink (journal-before-ack)
  kRecover,       ///< DurableSessionManager::recover
  // Children synthesized from a fix's round.stage_breakdown.
  kSanitize,
  kSubspace,
  kSpectrum,
  kCluster,
  kLocalize,
};
inline constexpr std::size_t kSpanNameCount = 13;

[[nodiscard]] const char* to_string(SpanName name);

struct Span {
  SpanName name = SpanName::kOffer;
  /// Index of the enclosing span, -1 at top level.
  std::int32_t parent = -1;
  /// Session and round the call served (0 when not tied to one).
  std::uint32_t session = 0;
  std::uint64_t round = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Process CPU consumed between the span's edges; negative when the
  /// edges carried no CPU reading.
  double cpu_s = -1.0;
};

/// Self time of every span: its CPU time when its edges carried CPU
/// readings, else its wall duration, minus the summed durations of its
/// children. CPU edges are what make the sum right for a pump on pool
/// lanes, whose stage children overlap each other and can outlast its
/// wall interval. The children of a wall span (sink calls inside a
/// receiver tick) run one after another inside it.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// In-memory span recorder. Disabled, every call is a no-op without a
/// clock read. Spans nest through an explicit stack (single recording
/// thread) and are written out only at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled, std::size_t reserve = 0);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index
  /// (-1 when disabled). `with_cpu` also reads process CPU at both edges.
  int open(SpanName name, std::uint32_t session = 0, std::uint64_t round = 0,
           bool with_cpu = false);
  /// Closes the innermost open span, which must be `index`.
  void close(int index);
  /// Appends a closed child of `parent` lasting `duration_s`, laid
  /// after the parent's previous synthesized child (the stage breakdown
  /// gives durations, not placements).
  void child(int parent, SpanName name, double duration_s,
             std::uint32_t session, std::uint64_t round);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// CSV: index,parent,name,session,round,start_us,end_us,cpu_us.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  /// Per span: where its next synthesized child starts.
  std::vector<double> child_cursor_;
};

/// RAII span; no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanName name, std::uint32_t session = 0,
             std::uint64_t round = 0, bool with_cpu = false)
      : tracer_(tracer),
        index_(tracer.open(name, session, round, with_cpu)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
