#include "durability/codec.hpp"

namespace spotfi {
namespace {

void write_rng_state(ByteWriter& w, const RngState& state) {
  for (const std::uint64_t s : state.s) w.u64(s);
  w.boolean(state.have_cached_normal);
  w.f64(state.cached_normal);
}

RngState read_rng_state(ByteReader& r) {
  RngState state;
  for (std::uint64_t& s : state.s) s = r.u64();
  state.have_cached_normal = r.boolean();
  state.cached_normal = r.f64();
  return state;
}

void write_cost_state(ByteWriter& w, const RoundCostState& state) {
  for (const double c : state.cost_s) w.f64(c);
  for (const bool s : state.seen) w.boolean(s);
}

RoundCostState read_cost_state(ByteReader& r) {
  RoundCostState state;
  for (double& c : state.cost_s) c = r.f64();
  for (bool& s : state.seen) s = r.boolean();
  return state;
}

void write_tracker_state(ByteWriter& w, const TrackerState& state) {
  w.boolean(state.initialized);
  w.boolean(state.last_rejected);
  w.f64(state.last_t);
  for (const double v : state.state) w.f64(v);
  for (const double v : state.cov) w.f64(v);
}

TrackerState read_tracker_state(ByteReader& r) {
  TrackerState state;
  state.initialized = r.boolean();
  state.last_rejected = r.boolean();
  state.last_t = r.f64();
  for (double& v : state.state) v = r.f64();
  for (double& v : state.cov) v = r.f64();
  return state;
}

void write_health_state(ByteWriter& w, const ApHealthState& state) {
  w.u8(static_cast<std::uint8_t>(state.health));
  w.f64(state.last_accepted_s);
  w.u64(state.accepted);
  w.u64(state.rejected);
  w.u64(state.recoveries);
}

ApHealthState read_health_state(ByteReader& r) {
  ApHealthState state;
  state.health = static_cast<ApHealth>(r.u8());
  state.last_accepted_s = r.f64();
  state.accepted = r.u64();
  state.rejected = r.u64();
  state.recoveries = r.u64();
  return state;
}

void write_streaming_state(ByteWriter& w, const StreamingState& state) {
  w.u32(static_cast<std::uint32_t>(state.aps.size()));
  for (const ApBufferState& ap : state.aps) {
    write_health_state(w, ap.health);
    w.u32(static_cast<std::uint32_t>(ap.packets.size()));
    for (const CsiPacket& packet : ap.packets) write_packet(w, packet);
  }
  write_tracker_state(w, state.tracker);
  write_ingest_report(w, state.ingest);
  w.u64(state.rejected);
  w.u64(state.failed_rounds);
  w.u64(state.fix_count);
  w.f64(state.now_s);
  w.boolean(state.has_stream_start);
  w.f64(state.stream_start_s);
  w.boolean(state.has_armed_since);
  w.f64(state.armed_since_s);
  w.f64(state.last_fix_time_s);
}

StreamingState read_streaming_state(ByteReader& r) {
  StreamingState state;
  const std::uint32_t n_aps = r.u32();
  if (!r.ok()) return state;
  state.aps.resize(n_aps);
  for (ApBufferState& ap : state.aps) {
    ap.health = read_health_state(r);
    const std::uint32_t n_packets = r.u32();
    if (!r.ok()) return state;
    ap.packets.reserve(n_packets);
    for (std::uint32_t p = 0; p < n_packets && r.ok(); ++p) {
      ap.packets.push_back(read_packet(r));
    }
  }
  state.tracker = read_tracker_state(r);
  state.ingest = read_ingest_report(r);
  state.rejected = r.u64();
  state.failed_rounds = r.u64();
  state.fix_count = r.u64();
  state.now_s = r.f64();
  state.has_stream_start = r.boolean();
  state.stream_start_s = r.f64();
  state.has_armed_since = r.boolean();
  state.armed_since_s = r.f64();
  state.last_fix_time_s = r.f64();
  return state;
}

}  // namespace

void write_packet(ByteWriter& w, const CsiPacket& packet) {
  w.u32(static_cast<std::uint32_t>(packet.csi.rows()));
  w.u32(static_cast<std::uint32_t>(packet.csi.cols()));
  for (std::size_t i = 0; i < packet.csi.rows(); ++i) {
    for (std::size_t j = 0; j < packet.csi.cols(); ++j) {
      const cplx v = packet.csi(i, j);
      w.f64(v.real());
      w.f64(v.imag());
    }
  }
  w.f64(packet.rssi_dbm);
  w.f64(packet.timestamp_s);
}

CsiPacket read_packet(ByteReader& r) {
  CsiPacket packet;
  const std::uint32_t rows = r.u32();
  const std::uint32_t cols = r.u32();
  // Shape sanity before allocating: a CSI matrix is antennas x
  // subcarriers, both small. Checksums catch corruption; this catches
  // decode drift without letting it turn into a giant allocation.
  if (!r.ok() || rows > 4096 || cols > 4096 ||
      r.remaining() < static_cast<std::size_t>(rows) * cols * 16) {
    (void)r.u64();  // force ok() = false on short payloads
    while (r.ok()) (void)r.u64();
    return packet;
  }
  packet.csi = CMatrix(rows, cols);
  for (std::uint32_t i = 0; i < rows; ++i) {
    for (std::uint32_t j = 0; j < cols; ++j) {
      const double re = r.f64();
      const double im = r.f64();
      packet.csi(i, j) = cplx(re, im);
    }
  }
  packet.rssi_dbm = r.f64();
  packet.timestamp_s = r.f64();
  return packet;
}

void write_session_stats(ByteWriter& w, const SessionStats& stats) {
  w.u64(stats.offered);
  w.u64(stats.accepted);
  w.u64(stats.degraded_admissions);
  w.u64(stats.shed_packets);
  w.u64(stats.queue_high_water);
  w.u64(stats.queue_capacity);
  w.u64(stats.rounds_full);
  w.u64(stats.rounds_degraded);
  w.u64(stats.rounds_shed);
  w.u64(stats.deadline_limited_rounds);
  w.u64(stats.deadline_misses);
  w.u64(stats.fixes);
  w.u64(stats.failed_rounds);
}

SessionStats read_session_stats(ByteReader& r) {
  SessionStats stats;
  stats.offered = r.u64();
  stats.accepted = r.u64();
  stats.degraded_admissions = r.u64();
  stats.shed_packets = r.u64();
  stats.queue_high_water = static_cast<std::size_t>(r.u64());
  stats.queue_capacity = static_cast<std::size_t>(r.u64());
  stats.rounds_full = r.u64();
  stats.rounds_degraded = r.u64();
  stats.rounds_shed = r.u64();
  stats.deadline_limited_rounds = r.u64();
  stats.deadline_misses = r.u64();
  stats.fixes = r.u64();
  stats.failed_rounds = r.u64();
  return stats;
}

void write_transport_stats(ByteWriter& w, const TransportStats& stats) {
  w.u64(stats.sent);
  w.u64(stats.acked);
  w.u64(stats.pending);
  w.u64(stats.failed);
  w.u64(stats.transmissions);
  w.u64(stats.retransmissions);
  w.u64(stats.send_rejected);
  w.u64(stats.connect_attempts);
  w.u64(stats.reconnects);
  w.u64(stats.heartbeats_sent);
  w.u64(stats.received);
  w.u64(stats.delivered);
  w.u64(stats.duplicates);
  w.u64(stats.out_of_window);
  w.u64(stats.corrupt);
  w.u64(stats.buffered);
  w.u64(stats.acks_sent);
  w.u64(stats.heartbeats_seen);
  w.u64(stats.connects_seen);
  w.u64(stats.backpressure_deferrals);
}

TransportStats read_transport_stats(ByteReader& r) {
  TransportStats stats;
  stats.sent = r.u64();
  stats.acked = r.u64();
  stats.pending = r.u64();
  stats.failed = r.u64();
  stats.transmissions = r.u64();
  stats.retransmissions = r.u64();
  stats.send_rejected = r.u64();
  stats.connect_attempts = r.u64();
  stats.reconnects = r.u64();
  stats.heartbeats_sent = r.u64();
  stats.received = r.u64();
  stats.delivered = r.u64();
  stats.duplicates = r.u64();
  stats.out_of_window = r.u64();
  stats.corrupt = r.u64();
  stats.buffered = r.u64();
  stats.acks_sent = r.u64();
  stats.heartbeats_seen = r.u64();
  stats.connects_seen = r.u64();
  stats.backpressure_deferrals = r.u64();
  return stats;
}

void write_ingest_report(ByteWriter& w, const IngestReport& report) {
  w.u64(report.records_accepted);
  w.u64(report.records_recovered);
  for (const std::size_t d : report.dropped) w.u64(d);
  w.u64(report.frames_foreign);
  w.u64(report.resyncs);
  w.u64(report.bytes_accepted);
  w.u64(report.bytes_skipped);
}

IngestReport read_ingest_report(ByteReader& r) {
  IngestReport report;
  report.records_accepted = static_cast<std::size_t>(r.u64());
  report.records_recovered = static_cast<std::size_t>(r.u64());
  for (std::size_t& d : report.dropped) d = static_cast<std::size_t>(r.u64());
  report.frames_foreign = static_cast<std::size_t>(r.u64());
  report.resyncs = static_cast<std::size_t>(r.u64());
  report.bytes_accepted = r.u64();
  report.bytes_skipped = r.u64();
  return report;
}

void write_session_state(ByteWriter& w, const SessionDurableState& state) {
  w.u64(state.id);
  write_session_stats(w, state.stats);
  w.u64(state.applied_packets);
  w.u64(state.applied_polls);
  w.u64(state.emitted_fixes);
  write_rng_state(w, state.rng);
  write_cost_state(w, state.cost);
  write_streaming_state(w, state.streaming);
}

SessionDurableState read_session_state(ByteReader& r) {
  SessionDurableState state;
  state.id = r.u64();
  state.stats = read_session_stats(r);
  state.applied_packets = r.u64();
  state.applied_polls = r.u64();
  state.emitted_fixes = r.u64();
  state.rng = read_rng_state(r);
  state.cost = read_cost_state(r);
  state.streaming = read_streaming_state(r);
  return state;
}

void write_receiver_state(ByteWriter& w, const ReceiverRecoveryState& state) {
  w.u32(state.epoch);
  w.u64(state.next_expected);
  write_transport_stats(w, state.stats);
  w.u32(static_cast<std::uint32_t>(state.window.size()));
  for (const ReceiverRecoveryState::BufferedFrame& frame : state.window) {
    w.u64(frame.seq);
    w.u64(frame.ap_id);
    write_packet(w, frame.packet);
  }
}

ReceiverRecoveryState read_receiver_state(ByteReader& r) {
  ReceiverRecoveryState state;
  state.epoch = r.u32();
  state.next_expected = r.u64();
  state.stats = read_transport_stats(r);
  const std::uint32_t n = r.u32();
  if (!r.ok()) return state;
  state.window.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    ReceiverRecoveryState::BufferedFrame frame;
    frame.seq = r.u64();
    frame.ap_id = static_cast<std::size_t>(r.u64());
    frame.packet = read_packet(r);
    state.window.push_back(std::move(frame));
  }
  return state;
}

}  // namespace spotfi
