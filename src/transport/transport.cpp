#include "transport/transport.hpp"

#include <algorithm>
#include <utility>

namespace spotfi {
namespace {

/// Factor each retransmission multiplies a frame's timeout by, and each
/// connect attempt the reconnect delay by.
constexpr double kRtoBackoff = 2.0;
/// Cap on the retransmit timeout [s].
constexpr double kRtoMaxS = 5.0;
/// Reconnect delays: the first attempt of an outage fires at once, the
/// next after kReconnectBackoffInitialS, then doubling up to the cap [s].
constexpr double kReconnectBackoffInitialS = 0.1;
constexpr double kReconnectBackoffMaxS = 5.0;

}  // namespace

const char* to_string(TransportErrorKind kind) {
  switch (kind) {
    case TransportErrorKind::kSendWindowFull: return "send-window-full";
    case TransportErrorKind::kConnectionLost: return "connection-lost";
    case TransportErrorKind::kRetriesExhausted: return "retries-exhausted";
    case TransportErrorKind::kNotConnected: return "not-connected";
  }
  return "unknown";
}

void TransportStats::merge(const TransportStats& other) {
  sent += other.sent;
  acked += other.acked;
  pending += other.pending;
  failed += other.failed;
  transmissions += other.transmissions;
  retransmissions += other.retransmissions;
  send_rejected += other.send_rejected;
  connect_attempts += other.connect_attempts;
  reconnects += other.reconnects;
  heartbeats_sent += other.heartbeats_sent;
  received += other.received;
  delivered += other.delivered;
  duplicates += other.duplicates;
  out_of_window += other.out_of_window;
  corrupt += other.corrupt;
  buffered += other.buffered;
  acks_sent += other.acks_sent;
  heartbeats_seen += other.heartbeats_seen;
  connects_seen += other.connects_seen;
  backpressure_deferrals += other.backpressure_deferrals;
}

TransportSink make_session_sink(SessionManager& manager, SessionId id) {
  return [&manager, id](std::size_t ap_id, CsiPacket& packet) {
    IngestItem item;
    item.ap_id = ap_id;
    item.packet = std::move(packet);
    if (!manager.offer_or_return(id, item).admitted()) {
      // Shed at the session queue: hand the payload back untouched so
      // the receiver retries on a later tick instead of losing an
      // about-to-be-acked frame.
      packet = std::move(item.packet);
      return false;
    }
    return true;
  };
}

SessionIngestStats session_ingest_report(
    const SessionManager& manager, SessionId id,
    const std::vector<const TransportSender*>& senders,
    const std::vector<const TransportReceiver*>& receivers) {
  SessionIngestStats report;
  report.session = manager.session_stats(id);
  for (const TransportSender* sender : senders) {
    SPOTFI_EXPECTS(sender != nullptr, "null sender in ingest report");
    report.transport.merge(sender->stats());
  }
  for (const TransportReceiver* receiver : receivers) {
    SPOTFI_EXPECTS(receiver != nullptr, "null receiver in ingest report");
    report.transport.merge(receiver->stats());
  }
  return report;
}

// ---------------------------------------------------------------------------
// TransportSender

TransportSender::TransportSender(LinkSimulator& link, TransportConfig config)
    : link_(&link), config_(config), rng_(config.seed) {
  SPOTFI_EXPECTS(config_.send_window >= 1,
                 "TransportSender: send_window must be >= 1");
  SPOTFI_EXPECTS(config_.rto_initial_s > 0.0 &&
                     config_.rto_initial_s <= kRtoMaxS,
                 "TransportSender: rto_initial_s must be in (0, 5] s");
  SPOTFI_EXPECTS(config_.liveness_timeout_s > config_.heartbeat_interval_s,
                 "TransportSender: liveness timeout must exceed the "
                 "heartbeat interval");
  SPOTFI_EXPECTS(config_.timer_jitter_frac >= 0.0 &&
                     config_.timer_jitter_frac < 1.0,
                 "TransportSender: timer_jitter_frac must be in [0, 1)");
  window_.resize(config_.send_window);
  rx_buf_.reserve(2 * config_.send_window + 8);
  connect_backoff_s_ = kReconnectBackoffInitialS;
}

double TransportSender::jittered(double base_s) {
  if (config_.timer_jitter_frac <= 0.0) return base_s;
  return base_s *
         (1.0 + config_.timer_jitter_frac * (2.0 * rng_.uniform() - 1.0));
}

Expected<std::uint64_t, TransportError> TransportSender::send(
    std::size_t ap_id, CsiPacket& packet, double now_s) {
  if (state_ == State::kFailed) {
    ++stats_.send_rejected;
    return TransportError{TransportErrorKind::kNotConnected, 0,
                          "transport failed permanently"};
  }
  if (next_seq_ - base_ >= config_.send_window) {
    ++stats_.send_rejected;
    return TransportError{TransportErrorKind::kSendWindowFull, next_seq_,
                          "send window full"};
  }
  SendSlot& slot = slot_of(next_seq_);
  slot.occupied = true;
  slot.transmitted = false;
  slot.seq = next_seq_;
  slot.ap_id = ap_id;
  slot.checksum = packet_checksum(packet);
  slot.retries = 0;
  slot.rto_s = config_.rto_initial_s;
  slot.next_retx_s = now_s;
  slot.packet = std::move(packet);
  ++next_seq_;
  ++stats_.sent;
  // While connecting, the frame waits in the window; establishment (or
  // the next tick) transmits it.
  if (state_ == State::kEstablished) transmit(slot, now_s, false);
  return slot.seq;
}

void TransportSender::transmit(SendSlot& slot, double now_s,
                               bool retransmission) {
  TransportFrame f;
  f.header.type = FrameType::kData;
  f.header.epoch = epoch_;
  f.header.seq = slot.seq;
  f.header.checksum = slot.checksum;
  f.header.ap_id = slot.ap_id;
  f.header.sent_at_s = now_s;
  // Copy, not move: the slot keeps the payload for retransmission until
  // the frame is acked (a real NIC would serialize it the same way).
  f.packet = slot.packet;
  link_->send(LinkDirection::kUplink, std::move(f), now_s);
  slot.transmitted = true;
  ++stats_.transmissions;
  if (retransmission) {
    ++slot.retries;
    ++stats_.retransmissions;
    slot.rto_s = std::min(slot.rto_s * kRtoBackoff, kRtoMaxS);
  }
  slot.next_retx_s = now_s + jittered(slot.rto_s);
  last_tx_s_ = now_s;
}

void TransportSender::process_ack(std::uint64_t cumulative_ack) {
  while (base_ <= cumulative_ack && base_ < next_seq_) {
    SendSlot& slot = slot_of(base_);
    if (slot.occupied && slot.seq == base_) {
      // Keep the payload storage: the slot will be reused by a later
      // seq and the stale matrix recycled, so steady state never
      // allocates for same-shaped captures.
      slot.occupied = false;
      ++stats_.acked;
    }
    ++base_;
  }
}

void TransportSender::enter_connecting(double now_s,
                                       const TransportError& why) {
  state_ = State::kConnecting;
  last_error_ = why;
  connect_backoff_s_ = kReconnectBackoffInitialS;
  connect_attempts_this_outage_ = 0;
  next_connect_at_s_ = now_s;  // first attempt fires immediately
}

void TransportSender::fail_all_pending() {
  for (std::uint64_t seq = base_; seq < next_seq_; ++seq) {
    SendSlot& slot = slot_of(seq);
    if (slot.occupied) {
      slot.occupied = false;
      ++stats_.failed;
    }
  }
}

void TransportSender::tick(double now_s) {
  if (state_ == State::kFailed) return;

  // 1. Drain the downlink: acks and handshake completions.
  rx_buf_.clear();
  link_->poll(LinkDirection::kDownlink, now_s, rx_buf_);
  for (const TransportFrame& f : rx_buf_) {
    switch (f.header.type) {
      case FrameType::kConnectAck:
        // A cumulative ack is a monotone end-to-end truth — honor it
        // whatever its epoch. Only the *handshake* is epoch-gated, so a
        // stale connect-ack from an abandoned attempt cannot complete a
        // newer one.
        process_ack(f.header.cumulative_ack);
        if (f.header.epoch == epoch_) {
          last_rx_s_ = now_s;
          if (state_ == State::kConnecting) {
            state_ = State::kEstablished;
            ++establishments_;
            if (establishments_ > 1) ++stats_.reconnects;
            // Everything still pending is due for (re)transmission now:
            // the outage invalidated in-flight copies and timers.
            for (std::uint64_t seq = base_; seq < next_seq_; ++seq) {
              SendSlot& slot = slot_of(seq);
              if (!slot.occupied) continue;
              slot.retries = 0;
              slot.rto_s = config_.rto_initial_s;
              slot.next_retx_s = now_s;
            }
          }
        }
        break;
      case FrameType::kAck:
        process_ack(f.header.cumulative_ack);
        last_rx_s_ = now_s;
        break;
      default:
        break;  // data/connect/heartbeat never travel the downlink
    }
  }

  // 2. Liveness: a silent receiver means the connection is gone.
  if (state_ == State::kEstablished &&
      now_s - last_rx_s_ > config_.liveness_timeout_s) {
    enter_connecting(now_s,
                     TransportError{TransportErrorKind::kConnectionLost, 0,
                                    "liveness timeout"});
  }

  // 3. Reconnect state machine.
  if (state_ == State::kConnecting && now_s >= next_connect_at_s_) {
    if (config_.max_reconnects > 0 &&
        connect_attempts_this_outage_ >= config_.max_reconnects) {
      state_ = State::kFailed;
      last_error_ = TransportError{TransportErrorKind::kRetriesExhausted, 0,
                                   "reconnect budget spent"};
      fail_all_pending();
      return;
    }
    ++epoch_;
    ++stats_.connect_attempts;
    ++connect_attempts_this_outage_;
    TransportFrame f;
    f.header.type = FrameType::kConnect;
    f.header.epoch = epoch_;
    f.header.sent_at_s = now_s;
    link_->send(LinkDirection::kUplink, std::move(f), now_s);
    last_tx_s_ = now_s;
    next_connect_at_s_ = now_s + jittered(connect_backoff_s_);
    connect_backoff_s_ =
        std::min(connect_backoff_s_ * kRtoBackoff, kReconnectBackoffMaxS);
    return;  // nothing else to do until the handshake answers
  }
  if (state_ != State::kEstablished) return;

  // 4. Retransmit timers, in sequence order (oldest debt first).
  for (std::uint64_t seq = base_; seq < next_seq_; ++seq) {
    SendSlot& slot = slot_of(seq);
    if (!slot.occupied || slot.next_retx_s > now_s) continue;
    if (slot.transmitted && slot.retries >= config_.max_retries) {
      // This frame has eaten its whole retry budget inside one epoch:
      // declare the connection dead and let the reconnect handshake
      // re-arm every pending frame.
      enter_connecting(
          now_s, TransportError{TransportErrorKind::kConnectionLost, slot.seq,
                                "retransmit budget spent"});
      return;
    }
    transmit(slot, now_s, /*retransmission=*/slot.transmitted);
  }

  // 5. Heartbeat on send-side silence, so the receiver keeps acking and
  // liveness stays observable even with no data in flight.
  if (now_s - last_tx_s_ >= config_.heartbeat_interval_s) {
    TransportFrame f;
    f.header.type = FrameType::kHeartbeat;
    f.header.epoch = epoch_;
    f.header.sent_at_s = now_s;
    link_->send(LinkDirection::kUplink, std::move(f), now_s);
    last_tx_s_ = now_s;
    ++stats_.heartbeats_sent;
  }
}

TransportStats TransportSender::stats() const {
  TransportStats s = stats_;
  // Derived, so the partition holds by construction.
  s.pending = s.sent - s.acked - s.failed;
  return s;
}

// ---------------------------------------------------------------------------
// TransportReceiver

TransportReceiver::TransportReceiver(LinkSimulator& link, TransportSink sink,
                                     TransportConfig config)
    : link_(&link), config_(config), sink_(std::move(sink)) {
  SPOTFI_EXPECTS(config_.reorder_window >= 1,
                 "TransportReceiver: reorder_window must be >= 1");
  SPOTFI_EXPECTS(static_cast<bool>(sink_),
                 "TransportReceiver: sink must be callable");
  window_.resize(config_.reorder_window);
  rx_buf_.reserve(2 * config_.reorder_window + 8);
}

void TransportReceiver::send_control(FrameType type, double now_s) {
  TransportFrame f;
  f.header.type = type;
  f.header.epoch = epoch_;
  f.header.cumulative_ack = next_expected_ - 1;
  f.header.sent_at_s = now_s;
  link_->send(LinkDirection::kDownlink, std::move(f), now_s);
}

bool TransportReceiver::drain() {
  bool advanced = false;
  while (true) {
    RecvSlot& slot = window_[next_expected_ % window_.size()];
    if (!slot.occupied || slot.seq != next_expected_) break;
    delivering_seq_ = slot.seq;
    const bool consumed = sink_(slot.ap_id, slot.packet);
    delivering_seq_ = 0;
    if (!consumed) {
      // Session backpressure: the packet stays in the slot (the sink
      // left it intact), the cumulative ack stalls here, and the
      // sender's window freezes — flow control end to end.
      ++stats_.backpressure_deferrals;
      break;
    }
    slot.occupied = false;
    --buffered_;
    ++stats_.delivered;
    ++next_expected_;
    advanced = true;
  }
  return advanced;
}

void TransportReceiver::tick(double now_s) {
  rx_buf_.clear();
  link_->poll(LinkDirection::kUplink, now_s, rx_buf_);
  bool want_ack = false;
  bool advanced = false;
  for (TransportFrame& f : rx_buf_) {
    switch (f.header.type) {
      case FrameType::kConnect:
        epoch_ = f.header.epoch;
        ++stats_.connects_seen;
        // The connect-ack tells the sender exactly where to resume:
        // everything through next_expected_-1 was already delivered.
        send_control(FrameType::kConnectAck, now_s);
        break;
      case FrameType::kHeartbeat:
        ++stats_.heartbeats_seen;
        want_ack = true;
        break;
      case FrameType::kData: {
        ++stats_.received;
        if (packet_checksum(f.packet) != f.header.checksum) {
          // Damaged in flight. Do not ack, do not touch the window —
          // to the protocol this frame was dropped, and the retransmit
          // timer repairs it.
          ++stats_.corrupt;
          break;
        }
        want_ack = true;
        const std::uint64_t seq = f.header.seq;
        if (seq < next_expected_) {
          ++stats_.duplicates;  // already delivered; re-ack only
          break;
        }
        if (seq >= next_expected_ + window_.size()) {
          // Too far ahead to buffer within bounded memory; the stalled
          // ack makes the sender retransmit it after the gap closes.
          ++stats_.out_of_window;
          break;
        }
        RecvSlot& slot = window_[seq % window_.size()];
        if (slot.occupied) {
          ++stats_.duplicates;  // in-window seqs map to slots uniquely
          break;
        }
        slot.occupied = true;
        slot.seq = seq;
        slot.ap_id = f.header.ap_id;
        slot.packet = std::move(f.packet);
        ++buffered_;
        // Deliver eagerly so later frames in this same poll batch are
        // classified against the advanced window — a burst of seqs
        // 1,2,3 arriving together must not trip the out-of-window cap.
        advanced = drain() || advanced;
        break;
      }
      default:
        break;  // acks never travel the uplink
    }
  }
  // Also retries frames the sink refused on an earlier tick, which is
  // why drain runs even on idle ticks.
  advanced = drain() || advanced;
  if (want_ack || advanced) {
    send_control(FrameType::kAck, now_s);
    ++stats_.acks_sent;
  }
}

TransportStats TransportReceiver::stats() const {
  TransportStats s = stats_;
  s.buffered = buffered_;
  return s;
}

ReceiverRecoveryState TransportReceiver::export_recovery_state() const {
  ReceiverRecoveryState out;
  out.epoch = epoch_;
  out.next_expected = next_expected_;
  out.stats = stats();
  out.stats.buffered = 0;  // derived from the window on restore
  for (std::uint64_t seq = next_expected_;
       seq < next_expected_ + window_.size(); ++seq) {
    const RecvSlot& slot = window_[seq % window_.size()];
    if (!slot.occupied || slot.seq != seq) continue;
    ReceiverRecoveryState::BufferedFrame frame;
    frame.seq = slot.seq;
    frame.ap_id = slot.ap_id;
    frame.packet = slot.packet;
    out.window.push_back(std::move(frame));
  }
  return out;
}

void TransportReceiver::restore_recovery_state(ReceiverRecoveryState state,
                                               std::uint64_t next_expected) {
  SPOTFI_EXPECTS(stats_.received == 0 && next_expected_ == 1,
                 "restore_recovery_state: receiver has already seen traffic");
  SPOTFI_EXPECTS(next_expected >= state.next_expected,
                 "restore_recovery_state: delivery mark cannot move back");
  epoch_ = state.epoch;
  stats_ = state.stats;
  // Everything in [state.next_expected, next_expected) was delivered to
  // the session after the snapshot (the journal proves it). Frames that
  // were parked in the snapshot window are already counted received;
  // frames that arrived after the snapshot are not — account for both
  // so the receiver partition stays exact across the restore.
  for (std::uint64_t seq = state.next_expected; seq < next_expected; ++seq) {
    const bool was_buffered =
        std::any_of(state.window.begin(), state.window.end(),
                    [seq](const auto& f) { return f.seq == seq; });
    if (!was_buffered) ++stats_.received;
    ++stats_.delivered;
  }
  next_expected_ = next_expected;
  buffered_ = 0;
  for (ReceiverRecoveryState::BufferedFrame& frame : state.window) {
    if (frame.seq < next_expected_) continue;  // overtaken by the mark
    SPOTFI_EXPECTS(frame.seq < next_expected_ + window_.size(),
                   "restore_recovery_state: frame beyond the reorder window");
    RecvSlot& slot = window_[frame.seq % window_.size()];
    slot.occupied = true;
    slot.seq = frame.seq;
    slot.ap_id = frame.ap_id;
    slot.packet = std::move(frame.packet);
    ++buffered_;
  }
}

}  // namespace spotfi
