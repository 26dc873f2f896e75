// Tests for the fault-tolerant ingest transport: the deterministic
// lossy-link simulator, the framed ack/retransmit protocol, reconnect
// with backoff, the TransportError taxonomy, exact TransportStats
// partitions, and the SessionManager sink wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/session_manager.hpp"
#include "transport/transport.hpp"

namespace spotfi {
namespace {

/// A tiny distinguishable payload: seq-dependent CSI plus a timestamp.
CsiPacket marked_packet(std::uint64_t mark) {
  CsiPacket p;
  p.csi = CMatrix(1, 4);
  for (std::size_t k = 0; k < 4; ++k) {
    p.csi(0, k) = cplx(static_cast<double>(mark), static_cast<double>(k));
  }
  p.rssi_dbm = -40.0 - static_cast<double>(mark % 7);
  p.timestamp_s = 1e-3 * static_cast<double>(mark);
  return p;
}

/// Sink that records deliveries and can be told to refuse the next N.
struct RecordingSink {
  std::vector<std::pair<std::size_t, CsiPacket>> delivered;
  std::size_t refuse_next = 0;

  TransportSink fn() {
    return [this](std::size_t ap_id, CsiPacket& packet) {
      if (refuse_next > 0) {
        --refuse_next;
        return false;  // packet left intact — backpressure
      }
      delivered.emplace_back(ap_id, std::move(packet));
      return true;
    };
  }
};

/// Drives both endpoints from t0 to t1 in dt steps (sender first, like a
/// capture box whose uplink leads its ack path).
void run_both(TransportSender& sender, TransportReceiver& receiver, double t0,
              double t1, double dt = 0.01) {
  for (double t = t0; t <= t1; t += dt) {
    sender.tick(t);
    receiver.tick(t);
  }
}

TransportConfig quiet_config() {
  TransportConfig cfg;
  cfg.timer_jitter_frac = 0.0;  // deterministic timers for unit tests
  return cfg;
}

// --- LinkSimulator ---------------------------------------------------------

TEST(LinkSimulator, DeliversInOrderWithDeterministicDelay) {
  LinkFaultModel model;
  model.delay_s = 0.05;
  LinkSimulator link(model);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    TransportFrame f;
    f.header.seq = s;
    link.send(LinkDirection::kUplink, std::move(f), 0.0);
  }
  std::vector<TransportFrame> out;
  link.poll(LinkDirection::kUplink, 0.049, out);
  EXPECT_TRUE(out.empty());  // nothing due yet
  link.poll(LinkDirection::kUplink, 0.05, out);
  ASSERT_EQ(out.size(), 3u);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    EXPECT_EQ(out[s - 1].header.seq, s);  // submission-order tie-break
  }
  EXPECT_EQ(link.stats().delivered, 3u);
}

TEST(LinkSimulator, SameSeedReplaysFaultsExactly) {
  LinkFaultModel model;
  model.delay_s = 0.01;
  model.jitter_s = 0.02;
  model.drop_prob = 0.3;
  model.duplicate_prob = 0.2;
  model.reorder_prob = 0.2;
  model.reorder_extra_s = 0.05;
  auto deliveries = [&](std::uint64_t seed) {
    LinkSimulator link(model, seed);
    for (std::uint64_t s = 1; s <= 64; ++s) {
      TransportFrame f;
      f.header.seq = s;
      link.send(LinkDirection::kUplink, std::move(f),
                0.001 * static_cast<double>(s));
    }
    std::vector<TransportFrame> out;
    link.poll(LinkDirection::kUplink, 10.0, out);
    std::vector<std::uint64_t> seqs;
    for (const auto& f : out) seqs.push_back(f.header.seq);
    return seqs;
  };
  const auto a = deliveries(7);
  const auto b = deliveries(7);
  const auto c = deliveries(8);
  EXPECT_EQ(a, b);  // bit-for-bit replay under the same seed
  EXPECT_NE(a, c);  // and a different scenario under a different one
}

TEST(LinkSimulator, DropAllDeliversNothingAndCountsIt) {
  LinkFaultModel model;
  model.drop_prob = 1.0;
  LinkSimulator link(model);
  for (int i = 0; i < 5; ++i) {
    link.send(LinkDirection::kUplink, TransportFrame{}, 0.0);
  }
  std::vector<TransportFrame> out;
  link.poll(LinkDirection::kUplink, 1.0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(link.stats().dropped, 5u);
  EXPECT_EQ(link.stats().submitted, 5u);
}

TEST(LinkSimulator, CorruptionBreaksTheChecksumEveryTime) {
  LinkFaultModel model;
  model.corrupt_prob = 1.0;
  LinkSimulator link(model, 3);
  for (std::uint64_t s = 1; s <= 32; ++s) {
    TransportFrame f;
    f.header.seq = s;
    f.packet = marked_packet(s);
    f.header.checksum = packet_checksum(f.packet);
    link.send(LinkDirection::kUplink, std::move(f), 0.0);
  }
  std::vector<TransportFrame> out;
  link.poll(LinkDirection::kUplink, 1.0, out);
  ASSERT_EQ(out.size(), 32u);
  for (const auto& f : out) {
    // Any single flipped payload bit must be visible to the receiver.
    EXPECT_NE(packet_checksum(f.packet), f.header.checksum)
        << "seq " << f.header.seq;
  }
  EXPECT_EQ(link.stats().corrupted, 32u);
}

TEST(LinkSimulator, DownWindowsBlackholeBothSubmissionAndDelivery) {
  LinkFaultModel model;
  model.delay_s = 0.1;
  model.down_windows = {{1.0, 2.0}};
  LinkSimulator link(model);
  // Submitted before the window but delivered inside it: blackholed.
  link.send(LinkDirection::kUplink, TransportFrame{}, 0.95);
  // Submitted inside the window: blackholed immediately.
  link.send(LinkDirection::kUplink, TransportFrame{}, 1.5);
  // Submitted after the window: delivered.
  link.send(LinkDirection::kUplink, TransportFrame{}, 2.0);
  std::vector<TransportFrame> out;
  link.poll(LinkDirection::kUplink, 3.0, out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(link.stats().disconnect_dropped, 2u);
}

// --- sender/receiver over a perfect wire -----------------------------------

TEST(Transport, DeliversInOrderExactlyOnceOverAPerfectLink) {
  LinkSimulator link(LinkFaultModel{});
  RecordingSink sink;
  TransportConfig cfg = quiet_config();
  TransportSender sender(link, cfg);
  TransportReceiver receiver(link, sink.fn(), cfg);

  run_both(sender, receiver, 0.0, 0.1);  // handshake
  ASSERT_TRUE(sender.established());

  for (std::uint64_t m = 1; m <= 10; ++m) {
    CsiPacket p = marked_packet(m);
    auto res = sender.send(m % 2, p, 0.1);
    ASSERT_TRUE(res.has_value());
    EXPECT_EQ(*res, m);
  }
  run_both(sender, receiver, 0.1, 0.5);

  ASSERT_EQ(sink.delivered.size(), 10u);
  for (std::uint64_t m = 1; m <= 10; ++m) {
    const auto& [ap_id, packet] = sink.delivered[m - 1];
    EXPECT_EQ(ap_id, m % 2);
    // Byte-identical payload: the wire was clean, so the checksummed
    // content arrives exactly as captured.
    EXPECT_EQ(packet_checksum(packet), packet_checksum(marked_packet(m)));
  }
  EXPECT_TRUE(sender.quiescent());
  EXPECT_TRUE(receiver.quiescent());
  EXPECT_EQ(sender.highest_acked(), 10u);
  EXPECT_EQ(receiver.delivered_through(), 10u);

  const TransportStats tx = sender.stats();
  EXPECT_EQ(tx.sent, 10u);
  EXPECT_EQ(tx.acked, 10u);
  EXPECT_EQ(tx.pending, 0u);
  EXPECT_EQ(tx.failed, 0u);
  EXPECT_EQ(tx.retransmissions, 0u);
  const TransportStats rx = receiver.stats();
  EXPECT_EQ(rx.received, 10u);
  EXPECT_EQ(rx.delivered, 10u);
  EXPECT_EQ(rx.duplicates + rx.out_of_window + rx.corrupt + rx.buffered, 0u);
}

TEST(Transport, SendWindowFullRefusesAndLeavesThePacketIntact) {
  LinkSimulator link(LinkFaultModel{});
  RecordingSink sink;
  TransportConfig cfg = quiet_config();
  cfg.send_window = 4;
  TransportSender sender(link, cfg);
  // No receiver ticks → no acks → the window can only fill.
  sender.tick(0.0);
  for (std::uint64_t m = 1; m <= 4; ++m) {
    CsiPacket p = marked_packet(m);
    ASSERT_TRUE(sender.send(0, p, 0.0).has_value());
  }
  CsiPacket overflow = marked_packet(99);
  const std::uint64_t before = packet_checksum(overflow);
  auto res = sender.send(0, overflow, 0.0);
  ASSERT_FALSE(res.has_value());
  EXPECT_EQ(res.error().kind, TransportErrorKind::kSendWindowFull);
  // Refusal is non-destructive: the caller still owns the capture.
  EXPECT_EQ(packet_checksum(overflow), before);
  EXPECT_EQ(sender.stats().send_rejected, 1u);
  EXPECT_EQ(sender.stats().sent, 4u);
}

TEST(Transport, RetransmitsWithExponentialBackoffThroughAnOutage) {
  LinkFaultModel model;
  model.down_windows = {{0.95, 1.6}};  // swallows the first transmissions
  LinkSimulator link(model);
  RecordingSink sink;
  TransportConfig cfg = quiet_config();
  cfg.rto_initial_s = 0.2;
  cfg.liveness_timeout_s = 10.0;  // keep reconnect out of this test
  TransportSender sender(link, cfg);
  TransportReceiver receiver(link, sink.fn(), cfg);

  run_both(sender, receiver, 0.0, 0.9);
  ASSERT_TRUE(sender.established());
  CsiPacket p = marked_packet(1);
  ASSERT_TRUE(sender.send(0, p, 1.0).has_value());  // blackholed
  run_both(sender, receiver, 1.0, 3.0);

  // Delivered exactly once despite the first copies dying in the window
  // (transmit at 1.0, retransmits at 1.2, 1.6, 2.4 — the rto doubling).
  ASSERT_EQ(sink.delivered.size(), 1u);
  const TransportStats tx = sender.stats();
  EXPECT_GE(tx.retransmissions, 2u);
  EXPECT_EQ(tx.acked, 1u);
  EXPECT_EQ(tx.pending, 0u);
  EXPECT_TRUE(sender.quiescent());
}

TEST(Transport, TimersDoubleUpToTheFiveSecondCap) {
  LinkFaultModel model;
  model.down_windows = {{0.5, 1e9}};  // dies for good after the handshake
  LinkSimulator link(model);
  RecordingSink sink;
  TransportConfig cfg = quiet_config();
  cfg.rto_initial_s = 0.2;
  cfg.max_retries = 7;           // the epoch ends after 7 retransmissions
  cfg.liveness_timeout_s = 1e6;  // so the retry budget, not liveness
  TransportSender sender(link, cfg);
  TransportReceiver receiver(link, sink.fn(), cfg);

  run_both(sender, receiver, 0.0, 0.4);
  ASSERT_TRUE(sender.established());
  CsiPacket p = marked_packet(1);
  ASSERT_TRUE(sender.send(0, p, 1.0).has_value());  // transmits at 1.0

  // Record the tick at which each data transmission and each connect
  // attempt happens.
  constexpr double kTick = 0.01;
  std::vector<double> data_at{1.0};
  std::vector<double> connect_at;
  TransportStats before = sender.stats();
  for (int i = 1; i <= 6000; ++i) {
    const double t = 1.0 + kTick * i;
    sender.tick(t);
    const TransportStats after = sender.stats();
    if (after.transmissions > before.transmissions) data_at.push_back(t);
    if (after.connect_attempts > before.connect_attempts) {
      connect_at.push_back(t);
    }
    before = after;
  }

  // Retransmissions: 0.2 s doubling per retry, capped at 5 s.
  const std::vector<double> data_gaps{0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0};
  ASSERT_EQ(data_at.size(), data_gaps.size() + 1);
  for (std::size_t k = 0; k < data_gaps.size(); ++k) {
    EXPECT_NEAR(data_at[k + 1] - data_at[k], data_gaps[k], kTick + 1e-9)
        << "retransmission " << k + 1;
  }

  // The retry budget is spent one timeout after the last retransmission;
  // reconnect attempts then back off 0.1 s doubling, capped at 5 s.
  ASSERT_GE(connect_at.size(), 10u);
  EXPECT_NEAR(connect_at.front() - data_at.back(), 5.0, 2.0 * kTick + 1e-9);
  double gap = 0.1;
  for (std::size_t k = 1; k < connect_at.size(); ++k) {
    EXPECT_NEAR(connect_at[k] - connect_at[k - 1], gap, kTick + 1e-9)
        << "connect attempt " << k + 1;
    gap = std::min(2.0 * gap, 5.0);
  }
}

// --- receiver classification, driven by hand-built frames ------------------

/// Pushes one kData frame straight onto the uplink.
void inject_data(LinkSimulator& link, std::uint64_t seq, double now_s,
                 bool valid_checksum = true) {
  TransportFrame f;
  f.header.type = FrameType::kData;
  f.header.seq = seq;
  f.header.ap_id = 0;
  f.packet = marked_packet(seq);
  f.header.checksum = packet_checksum(f.packet) + (valid_checksum ? 0 : 1);
  link.send(LinkDirection::kUplink, std::move(f), now_s);
}

/// Highest cumulative_ack the receiver has put on the downlink.
std::uint64_t last_ack(LinkSimulator& link, double now_s) {
  std::vector<TransportFrame> acks;
  link.poll(LinkDirection::kDownlink, now_s, acks);
  std::uint64_t cum = 0;
  for (const auto& f : acks) cum = std::max(cum, f.header.cumulative_ack);
  return cum;
}

TEST(Transport, ReceiverClassifiesEveryArrivalExactlyOnce) {
  LinkSimulator link(LinkFaultModel{});
  RecordingSink sink;
  TransportConfig cfg = quiet_config();
  cfg.reorder_window = 2;
  TransportReceiver receiver(link, sink.fn(), cfg);

  inject_data(link, 1, 0.0);
  inject_data(link, 4, 0.0);         // 4 >= 2 + 2 → out of window
  inject_data(link, 3, 0.0);         // buffered (reorder)
  inject_data(link, 1, 0.0);         // below the mark → duplicate
  inject_data(link, 5, 0.0, false);  // corrupted in flight
  receiver.tick(0.1);

  EXPECT_EQ(last_ack(link, 0.2), 1u);  // only seq 1 delivered so far
  TransportStats rx = receiver.stats();
  EXPECT_EQ(rx.received, 5u);
  EXPECT_EQ(rx.delivered, 1u);
  EXPECT_EQ(rx.duplicates, 1u);
  EXPECT_EQ(rx.out_of_window, 1u);
  EXPECT_EQ(rx.corrupt, 1u);
  EXPECT_EQ(rx.buffered, 1u);
  EXPECT_FALSE(receiver.quiescent());

  inject_data(link, 3, 0.3);  // same frame again while buffered
  inject_data(link, 2, 0.3);  // closes the gap → 2 and 3 drain
  receiver.tick(0.4);

  EXPECT_EQ(last_ack(link, 0.5), 3u);  // cumulative ack jumped the gap
  rx = receiver.stats();
  EXPECT_EQ(rx.received, 7u);
  EXPECT_EQ(rx.delivered, 3u);
  EXPECT_EQ(rx.duplicates, 2u);  // the buffered-slot copy counted too
  EXPECT_EQ(rx.buffered, 0u);
  EXPECT_TRUE(receiver.quiescent());
  ASSERT_EQ(sink.delivered.size(), 3u);
  for (std::uint64_t s = 1; s <= 3; ++s) {
    EXPECT_EQ(packet_checksum(sink.delivered[s - 1].second),
              packet_checksum(marked_packet(s)));
  }
  // The exact receive partition.
  EXPECT_EQ(rx.received,
            rx.delivered + rx.duplicates + rx.out_of_window + rx.corrupt +
                rx.buffered);
}

// --- heartbeat liveness, reconnect, and the error taxonomy -----------------

TEST(Transport, ReconnectResumesFromLastAckedFrame) {
  LinkFaultModel model;
  model.down_windows = {{1.0, 4.0}};  // a long mid-run outage
  LinkSimulator link(model);
  RecordingSink sink;
  TransportConfig cfg = quiet_config();
  cfg.rto_initial_s = 0.2;
  cfg.heartbeat_interval_s = 0.3;
  cfg.liveness_timeout_s = 1.0;
  TransportSender sender(link, cfg);
  TransportReceiver receiver(link, sink.fn(), cfg);

  run_both(sender, receiver, 0.0, 0.5);
  ASSERT_TRUE(sender.established());
  for (std::uint64_t m = 1; m <= 3; ++m) {
    CsiPacket p = marked_packet(m);
    ASSERT_TRUE(sender.send(0, p, 0.5).has_value());
  }
  run_both(sender, receiver, 0.5, 0.9);
  ASSERT_EQ(sink.delivered.size(), 3u);  // delivered and acked pre-outage

  // Frames sent into the outage: they must survive it.
  for (std::uint64_t m = 4; m <= 6; ++m) {
    CsiPacket p = marked_packet(m);
    ASSERT_TRUE(sender.send(0, p, 1.2).has_value());
  }
  run_both(sender, receiver, 1.2, 2.5);
  // Mid-outage: liveness expired, the sender noticed the loss.
  EXPECT_FALSE(sender.established());
  ASSERT_TRUE(sender.last_error().has_value());
  EXPECT_EQ(sender.last_error()->kind, TransportErrorKind::kConnectionLost);

  run_both(sender, receiver, 2.5, 6.0);
  // Back up: the handshake resumed from cumulative ack 3 and the pending
  // frames were retransmitted — exactly once each into the sink.
  ASSERT_EQ(sink.delivered.size(), 6u);
  for (std::uint64_t m = 1; m <= 6; ++m) {
    EXPECT_EQ(packet_checksum(sink.delivered[m - 1].second),
              packet_checksum(marked_packet(m)));
  }
  const TransportStats tx = sender.stats();
  EXPECT_GE(tx.reconnects, 1u);
  EXPECT_EQ(tx.sent, 6u);
  EXPECT_EQ(tx.acked, 6u);
  EXPECT_EQ(tx.pending, 0u);
  EXPECT_EQ(tx.failed, 0u);
  EXPECT_GE(tx.heartbeats_sent, 1u);
  EXPECT_GE(receiver.stats().connects_seen, 2u);
}

TEST(Transport, ExhaustedReconnectBudgetFailsAllPendingExplicitly) {
  LinkFaultModel model;
  model.down_windows = {{0.5, 1e9}};  // the link never comes back
  LinkSimulator link(model);
  RecordingSink sink;
  TransportConfig cfg = quiet_config();
  cfg.rto_initial_s = 0.1;
  cfg.max_retries = 2;
  cfg.liveness_timeout_s = 0.5;
  cfg.heartbeat_interval_s = 0.2;
  cfg.max_reconnects = 3;
  TransportSender sender(link, cfg);
  TransportReceiver receiver(link, sink.fn(), cfg);

  run_both(sender, receiver, 0.0, 0.4);
  ASSERT_TRUE(sender.established());
  for (std::uint64_t m = 1; m <= 4; ++m) {
    CsiPacket p = marked_packet(m);
    ASSERT_TRUE(sender.send(0, p, 0.6).has_value());  // into the abyss
  }
  run_both(sender, receiver, 0.6, 30.0, 0.05);

  ASSERT_TRUE(sender.failed());
  ASSERT_TRUE(sender.last_error().has_value());
  EXPECT_EQ(sender.last_error()->kind,
            TransportErrorKind::kRetriesExhausted);
  const TransportStats tx = sender.stats();
  // The partition stays exact even in total failure: nothing pending,
  // nothing silently lost — every unacked frame is explicitly failed.
  EXPECT_EQ(tx.sent, 4u);
  EXPECT_EQ(tx.failed, 4u);
  EXPECT_EQ(tx.pending, 0u);
  EXPECT_EQ(tx.sent, tx.acked + tx.pending + tx.failed);

  // And further sends are refused with the terminal taxonomy entry.
  CsiPacket p = marked_packet(9);
  auto res = sender.send(0, p, 31.0);
  ASSERT_FALSE(res.has_value());
  EXPECT_EQ(res.error().kind, TransportErrorKind::kNotConnected);
}

// --- backpressure and the SessionManager sink ------------------------------

TEST(Transport, SinkBackpressureStallsAcksThenRecovers) {
  LinkSimulator link(LinkFaultModel{});
  RecordingSink sink;
  sink.refuse_next = 25;  // session queue "full" for a while
  TransportConfig cfg = quiet_config();
  TransportSender sender(link, cfg);
  TransportReceiver receiver(link, sink.fn(), cfg);

  run_both(sender, receiver, 0.0, 0.1);
  for (std::uint64_t m = 1; m <= 5; ++m) {
    CsiPacket p = marked_packet(m);
    ASSERT_TRUE(sender.send(0, p, 0.1).has_value());
  }
  run_both(sender, receiver, 0.1, 5.0);

  // Every refusal deferred delivery without loss or reorder; once the
  // sink accepted, frames drained in order, exactly once.
  ASSERT_EQ(sink.delivered.size(), 5u);
  for (std::uint64_t m = 1; m <= 5; ++m) {
    EXPECT_EQ(packet_checksum(sink.delivered[m - 1].second),
              packet_checksum(marked_packet(m)));
  }
  EXPECT_GE(receiver.stats().backpressure_deferrals, 25u);
  EXPECT_EQ(receiver.stats().delivered, 5u);
  EXPECT_TRUE(sender.quiescent());
}

TEST(Transport, SessionSinkFeedsOfferAndHandsBackShedPackets) {
  SessionManagerConfig mgr_cfg;
  mgr_cfg.num_threads = 1;
  SessionManager manager(LinkConfig::intel5300_40mhz(), mgr_cfg);
  SessionConfig scfg;
  scfg.streaming.group_size = 1000;  // rounds never fire in this test
  scfg.overload.queue_capacity = 2;
  scfg.aps.resize(2);
  scfg.aps[0].position = {0.0, 0.0};
  scfg.aps[1].position = {5.0, 0.0};
  const SessionId id = manager.open_session(scfg);

  TransportSink sink = make_session_sink(manager, id);
  CsiPacket a = marked_packet(1);
  CsiPacket b = marked_packet(2);
  CsiPacket c = marked_packet(3);
  EXPECT_TRUE(sink(0, a));
  EXPECT_TRUE(sink(1, b));
  // Queue full: refused, and the payload is handed back intact so the
  // transport can retry instead of dropping an about-to-be-acked frame.
  EXPECT_FALSE(sink(0, c));
  EXPECT_EQ(packet_checksum(c), packet_checksum(marked_packet(3)));

  SessionStats stats = manager.session_stats(id);
  EXPECT_EQ(stats.offered, 3u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.shed_packets, 1u);

  // Drain the queue; the retry now succeeds and accounting still
  // partitions: offered == accepted + shed across the retry.
  (void)manager.pump(id);
  EXPECT_TRUE(sink(0, c));
  stats = manager.session_stats(id);
  EXPECT_EQ(stats.offered, 4u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.shed_packets, 1u);
}

}  // namespace
}  // namespace spotfi
