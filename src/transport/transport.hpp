// Reliable async ingest transport (DESIGN.md §13): the sender/receiver
// pair that delivers per-AP capture frames into the session layer with
// end-to-end guarantees over the injectable-fault link.
//
// Guarantees, and the machinery behind each:
//
//  * No acked frame is lost. Acks are cumulative and mean *delivered to
//    the application*, not merely received; the sender keeps every
//    unacked frame in a bounded window and retransmits on a per-frame
//    timer with exponential backoff + jitter until acked — across
//    reconnects, because sequence numbers outlive connection epochs and
//    a kConnectAck tells the sender exactly where to resume.
//  * No frame is delivered twice. The receiver tracks the next expected
//    sequence number for the lifetime of the link (not the epoch) and
//    holds out-of-order arrivals in a bounded reorder window; anything
//    below the delivery mark or already buffered is counted a duplicate
//    and dropped.
//  * Corruption is detected, never consumed. Payload checksums are
//    verified on arrival; a mismatch is counted and treated exactly
//    like a drop (the retransmit timer repairs it).
//  * Overload pushes back instead of overflowing. Delivery goes through
//    a TransportSink that may refuse (the session queue was full); the
//    receiver then stalls in-order delivery and stops advancing the
//    cumulative ack, which freezes the sender's window — backpressure
//    propagates to the capture source as kSendWindowFull, never as
//    silent loss.
//  * Failure is explicit. A dead link exhausts the reconnect budget and
//    every pending frame surfaces through the TransportError taxonomy
//    (mirroring PR-2's IngestError) — TransportStats partitions exactly
//    (sent = acked + pending + failed; received = delivered + duplicate
//    + out_of_window + corrupt + buffered) so nothing can vanish
//    between the counters.
//
// Threading contract (mirrors SessionManager's): one thread drives a
// sender (send/tick), one thread drives a receiver (tick) — the link in
// between is internally locked. stats() is safe from the driving thread
// at any time, or from any thread once the driver has quiesced.
// Steady-state delivery on an established connection performs no heap
// allocation in the transport machinery: window slots, reorder slots,
// link queues, and poll buffers are all pre-sized and recycled
// (payload storage travels by move; bench/perf_transport.cpp gates it).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "core/session_manager.hpp"
#include "transport/link.hpp"

namespace spotfi {

/// Why the transport refused or abandoned work. Mirrors IngestErrorKind:
/// an explicit, enumerable taxonomy instead of silent loss.
enum class TransportErrorKind : std::uint8_t {
  kSendWindowFull,    ///< backpressure: too many unacked frames in flight
  kConnectionLost,    ///< liveness timeout or retry budget spent; reconnecting
  kRetriesExhausted,  ///< reconnect budget spent; pending frames failed
  kNotConnected,      ///< send() after the transport failed permanently
};

inline constexpr std::size_t kTransportErrorKindCount = 4;

[[nodiscard]] const char* to_string(TransportErrorKind kind);

/// One transport failure. `detail` is a static string — the error path
/// allocates nothing.
struct TransportError {
  TransportErrorKind kind = TransportErrorKind::kSendWindowFull;
  /// Sequence number involved (0 when not frame-specific).
  std::uint64_t seq = 0;
  const char* detail = "";
};

struct TransportConfig {
  /// Max unacked data frames the sender holds (the bounded-memory cap;
  /// also the backpressure horizon).
  std::size_t send_window = 64;
  /// Receiver reorder/dedup window (frames ahead of the delivery mark it
  /// will buffer; anything further is out_of_window and retransmitted).
  std::size_t reorder_window = 64;
  /// Initial retransmit timeout [s], in (0, 5]; doubles per retry up to
  /// 5 s (transport.cpp's timer constants).
  double rto_initial_s = 0.2;
  /// Uniform +-fraction of jitter on every timer, so retransmit storms
  /// from many senders decorrelate. Drawn from the transport's own
  /// seeded Rng — deterministic per seed.
  double timer_jitter_frac = 0.1;
  /// Retransmissions of one frame within one connection epoch before the
  /// sender declares the connection lost and reconnects.
  std::size_t max_retries = 8;
  /// Sender emits a heartbeat after this much send-side silence [s].
  double heartbeat_interval_s = 0.5;
  /// Receive-side silence after which the sender declares the connection
  /// lost [s]. Must exceed heartbeat_interval_s.
  double liveness_timeout_s = 2.0;
  /// Connect attempts per outage before the sender gives up and fails
  /// every pending frame (kRetriesExhausted). 0 = never give up. The
  /// first attempt fires at once, the next after 0.1 s, doubling up to
  /// 5 s between attempts.
  std::size_t max_reconnects = 0;
  /// Seed of the transport's private timer-jitter Rng.
  std::uint64_t seed = 1;
};

/// Counters for one transport endpoint (a sender fills the sent-side, a
/// receiver the received-side; merge() folds multiple connections).
///
/// Exact partitions, audited by the chaos harness:
///   sent     == acked + pending + failed
///   received == delivered + duplicates + out_of_window + corrupt
///               + buffered            (buffered == 0 at quiescence)
struct TransportStats {
  // -- sender side --
  std::uint64_t sent = 0;      ///< frames accepted into the send window
  std::uint64_t acked = 0;     ///< cumulatively acknowledged (delivered)
  std::uint64_t pending = 0;   ///< in the window awaiting ack
  std::uint64_t failed = 0;    ///< abandoned with a TransportError
  std::uint64_t transmissions = 0;    ///< data frames put on the wire
  std::uint64_t retransmissions = 0;  ///< subset that were retries
  std::uint64_t send_rejected = 0;    ///< send() refusals (window full)
  std::uint64_t connect_attempts = 0;
  std::uint64_t reconnects = 0;  ///< successful re-establishments
  std::uint64_t heartbeats_sent = 0;
  // -- receiver side --
  std::uint64_t received = 0;   ///< data frames that arrived
  std::uint64_t delivered = 0;  ///< handed to the sink exactly once
  std::uint64_t duplicates = 0;
  std::uint64_t out_of_window = 0;
  std::uint64_t corrupt = 0;   ///< checksum mismatch (treated as a drop)
  std::uint64_t buffered = 0;  ///< currently held in the reorder window
  std::uint64_t acks_sent = 0;
  std::uint64_t heartbeats_seen = 0;
  std::uint64_t connects_seen = 0;
  /// Times the sink refused an in-order frame (session backpressure).
  std::uint64_t backpressure_deferrals = 0;

  void merge(const TransportStats& other);
};

/// Where the receiver hands in-order frames. Returns true when the
/// frame was consumed (packet moved from); false to refuse it — the
/// packet must be left intact and the receiver will retry on a later
/// tick without advancing the cumulative ack.
using TransportSink = std::function<bool(std::size_t ap_id, CsiPacket& packet)>;

/// A sink that feeds a SessionManager session through the wait-free
/// offer path. A shed verdict (queue full) refuses the frame — packet
/// handed back, retried later — so transport retries and admission
/// accounting stay consistent: every delivered frame is offered exactly
/// once per admission, and session offered == accepted + shed still
/// partitions exactly.
[[nodiscard]] TransportSink make_session_sink(SessionManager& manager,
                                              SessionId id);

class TransportSender;
class TransportReceiver;

/// One session's end-to-end ingest picture: the session-layer counters
/// next to the merged transport counters of every connection feeding it.
/// When all offers arrive via make_session_sink, the layers tie out:
/// transport.delivered == session.accepted and
/// transport.backpressure_deferrals == session.shed_packets.
struct SessionIngestStats {
  SessionStats session;
  TransportStats transport;
};

/// Merges the stats of this session's transport endpoints with its
/// SessionStats into one report (see SessionIngestStats for the
/// cross-layer invariants the combination exposes).
[[nodiscard]] SessionIngestStats session_ingest_report(
    const SessionManager& manager, SessionId id,
    const std::vector<const TransportSender*>& senders,
    const std::vector<const TransportReceiver*>& receivers);

/// The capture-side endpoint: frames in, reliability out.
class TransportSender {
 public:
  /// `link` must outlive the sender. The sender owns the uplink
  /// direction and polls the downlink for acks.
  TransportSender(LinkSimulator& link, TransportConfig config = {});

  TransportSender(const TransportSender&) = delete;
  TransportSender& operator=(const TransportSender&) = delete;

  /// Queues one capture frame for reliable delivery and returns its
  /// sequence number. On refusal (window full / transport failed) the
  /// packet is left intact in `packet` so the caller can retry, shed,
  /// or spill without a copy.
  [[nodiscard]] Expected<std::uint64_t, TransportError> send(
      std::size_t ap_id, CsiPacket& packet, double now_s);

  /// Advances the protocol to `now_s`: processes acks, fires retransmit
  /// and heartbeat timers, detects dead links, and walks the reconnect
  /// state machine. Call at least a few times per rto_initial_s.
  void tick(double now_s);

  [[nodiscard]] bool established() const {
    return state_ == State::kEstablished;
  }
  /// True once the reconnect budget is spent; send() refuses forever.
  [[nodiscard]] bool failed() const { return state_ == State::kFailed; }
  /// Every accepted frame acked — nothing in flight.
  [[nodiscard]] bool quiescent() const {
    return established() && base_ == next_seq_;
  }
  /// Highest cumulatively acked sequence number (0 = none yet).
  [[nodiscard]] std::uint64_t highest_acked() const { return base_ - 1; }
  [[nodiscard]] const std::optional<TransportError>& last_error() const {
    return last_error_;
  }
  [[nodiscard]] TransportStats stats() const;
  [[nodiscard]] const TransportConfig& config() const { return config_; }

 private:
  enum class State : std::uint8_t {
    kConnecting,   ///< initial connect or reconnect backoff
    kEstablished,  ///< data and heartbeats flowing
    kFailed,       ///< reconnect budget spent; terminal
  };

  struct SendSlot {
    bool occupied = false;
    bool transmitted = false;  ///< at least once this epoch
    std::uint64_t seq = 0;
    std::size_t ap_id = 0;
    std::uint64_t checksum = 0;
    std::size_t retries = 0;  ///< retransmissions this epoch
    double rto_s = 0.0;
    double next_retx_s = 0.0;
    /// Retained until acked; storage recycled across window reuse so the
    /// steady state never allocates.
    CsiPacket packet;
  };

  [[nodiscard]] SendSlot& slot_of(std::uint64_t seq) {
    return window_[seq % config_.send_window];
  }
  /// Timer value with +-timer_jitter_frac of seeded jitter applied.
  [[nodiscard]] double jittered(double base_s);
  void transmit(SendSlot& slot, double now_s, bool retransmission);
  void process_ack(std::uint64_t cumulative_ack);
  void enter_connecting(double now_s, const TransportError& why);
  void fail_all_pending();

  LinkSimulator* link_;
  TransportConfig config_;
  Rng rng_;
  State state_ = State::kConnecting;
  std::uint32_t epoch_ = 0;
  std::uint64_t base_ = 1;      ///< lowest unacked seq
  std::uint64_t next_seq_ = 1;  ///< next seq to assign
  std::vector<SendSlot> window_;
  std::vector<TransportFrame> rx_buf_;  ///< reused downlink poll buffer
  double last_rx_s_ = 0.0;
  double last_tx_s_ = 0.0;
  double next_connect_at_s_ = -1.0;
  double connect_backoff_s_ = 0.0;
  std::size_t connect_attempts_this_outage_ = 0;
  std::uint64_t establishments_ = 0;
  std::optional<TransportError> last_error_;
  TransportStats stats_;
};

/// Complete durable state of a TransportReceiver: the connection epoch,
/// the cumulative delivery mark, the counters, and the out-of-order
/// frames parked in the reorder window. Snapshotting this (and
/// journaling accepted packets with their transport seq) is what lets a
/// recovered receiver resume from the exact ack it last advertised — a
/// reconnecting sender retransmits only the unacked suffix and never
/// redelivers into a recovered session (DESIGN.md §14).
struct ReceiverRecoveryState {
  std::uint32_t epoch = 0;
  std::uint64_t next_expected = 1;
  TransportStats stats;
  struct BufferedFrame {
    std::uint64_t seq = 0;
    std::size_t ap_id = 0;
    CsiPacket packet;
  };
  /// Frames buffered ahead of the delivery mark, ascending seq.
  std::vector<BufferedFrame> window;
};

/// The server-side endpoint: verifies, dedups, reorders, acks, and
/// delivers exactly once into the sink.
class TransportReceiver {
 public:
  /// `link` must outlive the receiver. The receiver polls the uplink and
  /// owns the downlink direction.
  TransportReceiver(LinkSimulator& link, TransportSink sink,
                    TransportConfig config = {});

  TransportReceiver(const TransportReceiver&) = delete;
  TransportReceiver& operator=(const TransportReceiver&) = delete;

  /// Drains the uplink at `now_s`: answers connects and heartbeats,
  /// classifies data frames, delivers the in-order prefix through the
  /// sink (retrying frames the sink refused earlier), and acks.
  void tick(double now_s);

  /// Highest sequence number delivered to the sink (0 = none yet). Also
  /// the cumulative ack value the next kAck will carry.
  [[nodiscard]] std::uint64_t delivered_through() const {
    return next_expected_ - 1;
  }
  /// Nothing buffered awaiting reorder or backpressure retry.
  [[nodiscard]] bool quiescent() const { return buffered_ == 0; }
  [[nodiscard]] TransportStats stats() const;

  /// Sequence number of the frame currently being handed to the sink —
  /// valid only inside the sink callback (0 otherwise). Durable sinks
  /// journal it with the accepted packet so recovery can recompute the
  /// delivery mark (DESIGN.md §14).
  [[nodiscard]] std::uint64_t delivering_seq() const {
    return delivering_seq_;
  }

  /// Snapshot of the full receiver state for durability (quiesced
  /// contract: no concurrent tick()).
  [[nodiscard]] ReceiverRecoveryState export_recovery_state() const;
  /// Restores a snapshot into a freshly constructed receiver (nothing
  /// received yet), advancing the delivery mark to `next_expected`
  /// (>= state.next_expected) for deliveries the journal proves happened
  /// after the snapshot. Window frames overtaken by the recovered mark
  /// are counted delivered; post-snapshot deliveries of frames that
  /// never reached the snapshot window are counted received+delivered —
  /// the received == delivered + duplicates + out_of_window + corrupt +
  /// buffered partition stays exact across the restore.
  void restore_recovery_state(ReceiverRecoveryState state,
                              std::uint64_t next_expected);

 private:
  struct RecvSlot {
    bool occupied = false;
    std::uint64_t seq = 0;
    std::size_t ap_id = 0;
    CsiPacket packet;
  };

  /// Delivers the in-order prefix; returns true if the mark advanced.
  bool drain();
  void send_control(FrameType type, double now_s);

  LinkSimulator* link_;
  TransportConfig config_;
  TransportSink sink_;
  std::uint64_t next_expected_ = 1;
  std::uint32_t epoch_ = 0;  ///< latest connect epoch seen
  std::vector<RecvSlot> window_;
  std::vector<TransportFrame> rx_buf_;  ///< reused uplink poll buffer
  std::size_t buffered_ = 0;
  std::uint64_t delivering_seq_ = 0;  ///< set around the sink callback
  TransportStats stats_;
};

}  // namespace spotfi
