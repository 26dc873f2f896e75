// Tests for the crash-tolerant durability subsystem (DESIGN.md §14):
// bit-exact codecs, WAL framing with torn-tail truncation, atomic
// snapshot publish with corrupt-fallback, recovery replay that
// regenerates byte-identical fixes, injected ENOSPC/short writes, and
// the deterministic kill-point sweep — every CrashPoint × several
// seeds, each crash recovered into a fresh process image and driven to
// completion, with the final fix stream compared byte-for-byte against
// an uncrashed reference. The transport variant crashes the server mid
// delivery and asserts exactly-once across the crash + reconnect.
//
// Every scenario is seeded; a failure prints the (point, nth, seed)
// triple that reproduces it. CI adds a per-commit seed via
// SPOTFI_CRASH_SEED.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "channel/faults.hpp"
#include "core/session_manager.hpp"
#include "durability/durability.hpp"
#include "testbed/deployment.hpp"
#include "testbed/experiment.hpp"
#include "transport/transport.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();

/// Self-deleting scratch directory for journal + snapshot files.
struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "spotfi-dur-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = mkdtemp(buf.data());
    SPOTFI_EXPECTS(made != nullptr, "mkdtemp failed");
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  [[nodiscard]] std::string wal() const { return path + "/journal.wal"; }
};

/// Tiny payload whose timestamp encodes its identity (mark / 1000).
CsiPacket marked_packet(std::uint64_t mark) {
  CsiPacket p;
  p.csi = CMatrix(1, 4);
  for (std::size_t k = 0; k < 4; ++k) {
    p.csi(0, k) = cplx(static_cast<double>(mark), static_cast<double>(k));
  }
  p.rssi_dbm = -42.0;
  p.timestamp_s = 1e-3 * static_cast<double>(mark);
  return p;
}

std::uint64_t mark_of(const CsiPacket& p) {
  return static_cast<std::uint64_t>(std::llround(p.timestamp_s * 1000.0));
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x5a));
}

// --- codec round trips ------------------------------------------------------

TEST(DurabilityCodec, PacketRoundTripsBitExactly) {
  const CsiPacket original = marked_packet(77);
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  write_packet(w, original);
  ByteReader r(buf);
  const CsiPacket back = read_packet(r);
  ASSERT_TRUE(r.done());
  ASSERT_EQ(back.csi.rows(), original.csi.rows());
  ASSERT_EQ(back.csi.cols(), original.csi.cols());
  for (std::size_t i = 0; i < original.csi.rows(); ++i) {
    for (std::size_t j = 0; j < original.csi.cols(); ++j) {
      EXPECT_EQ(back.csi(i, j), original.csi(i, j));
    }
  }
  EXPECT_EQ(back.rssi_dbm, original.rssi_dbm);
  EXPECT_EQ(back.timestamp_s, original.timestamp_s);
}

TEST(DurabilityCodec, SessionStatsRoundTrip) {
  SessionStats s;
  s.offered = 11;
  s.accepted = 10;
  s.degraded_admissions = 3;
  s.shed_packets = 1;
  s.queue_high_water = 7;
  s.queue_capacity = 64;
  s.rounds_full = 2;
  s.rounds_degraded = 1;
  s.rounds_shed = 4;
  s.deadline_limited_rounds = 5;
  s.deadline_misses = 6;
  s.fixes = 2;
  s.failed_rounds = 1;
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  write_session_stats(w, s);
  ByteReader r(buf);
  const SessionStats back = read_session_stats(r);
  ASSERT_TRUE(r.done());
  EXPECT_EQ(back.offered, s.offered);
  EXPECT_EQ(back.accepted, s.accepted);
  EXPECT_EQ(back.degraded_admissions, s.degraded_admissions);
  EXPECT_EQ(back.shed_packets, s.shed_packets);
  EXPECT_EQ(back.queue_high_water, s.queue_high_water);
  EXPECT_EQ(back.queue_capacity, s.queue_capacity);
  EXPECT_EQ(back.rounds_full, s.rounds_full);
  EXPECT_EQ(back.rounds_degraded, s.rounds_degraded);
  EXPECT_EQ(back.rounds_shed, s.rounds_shed);
  EXPECT_EQ(back.deadline_limited_rounds, s.deadline_limited_rounds);
  EXPECT_EQ(back.deadline_misses, s.deadline_misses);
  EXPECT_EQ(back.fixes, s.fixes);
  EXPECT_EQ(back.failed_rounds, s.failed_rounds);
}

TEST(DurabilityCodec, ReceiverStateRoundTrip) {
  ReceiverRecoveryState state;
  state.epoch = 3;
  state.next_expected = 42;
  state.stats.received = 50;
  state.stats.delivered = 41;
  state.stats.duplicates = 7;
  state.window.push_back({44, 2, marked_packet(9)});
  state.window.push_back({45, 0, marked_packet(10)});
  std::vector<std::uint8_t> buf;
  ByteWriter w(buf);
  write_receiver_state(w, state);
  ByteReader r(buf);
  const ReceiverRecoveryState back = read_receiver_state(r);
  ASSERT_TRUE(r.done());
  EXPECT_EQ(back.epoch, state.epoch);
  EXPECT_EQ(back.next_expected, state.next_expected);
  EXPECT_EQ(back.stats.received, state.stats.received);
  EXPECT_EQ(back.stats.delivered, state.stats.delivered);
  EXPECT_EQ(back.stats.duplicates, state.stats.duplicates);
  ASSERT_EQ(back.window.size(), 2u);
  EXPECT_EQ(back.window[0].seq, 44u);
  EXPECT_EQ(back.window[0].ap_id, 2u);
  EXPECT_EQ(mark_of(back.window[0].packet), 9u);
  EXPECT_EQ(back.window[1].seq, 45u);
  EXPECT_EQ(mark_of(back.window[1].packet), 10u);
}

TEST(DurabilityCodec, ReaderLatchesOverrunInsteadOfThrowing) {
  const std::vector<std::uint8_t> four(4, 0xab);
  ByteReader r(four);
  (void)r.u64();  // needs 8, has 4
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.u32(), 0u);  // stays latched
  EXPECT_FALSE(r.ok());
}

// --- WAL framing ------------------------------------------------------------

/// Appends open + n packets + fix + poll + close; returns record count.
std::size_t write_small_journal(const std::string& path, std::size_t n_packets,
                                WalIoFailurePlan io = {},
                                CrashInjector* crash = nullptr) {
  WalWriter writer(path, crash, io);
  EXPECT_TRUE(writer.ok());
  EXPECT_TRUE(writer.append_open({1}).has_value());
  for (std::size_t i = 0; i < n_packets; ++i) {
    WalPacket rec;
    rec.session = 1;
    rec.index = i + 1;
    rec.ap_id = i % 3;
    rec.receiver_id = 0;
    rec.seq = 0;
    rec.packet = marked_packet(100 + i);
    EXPECT_TRUE(writer.append_packet(rec).has_value());
  }
  EXPECT_TRUE(writer.append_fix({1, 1, 0xfeedULL, 2.5, false, {1.0, 2.0}, {3.0, 4.0}}).has_value());
  EXPECT_TRUE(writer.append_poll({1, 1, 3.5}).has_value());
  EXPECT_TRUE(writer.append_close({1}).has_value());
  return n_packets + 4;
}

TEST(Wal, AppendScanRoundTrip) {
  TempDir dir;
  const std::size_t n = write_small_journal(dir.wal(), 3);
  const WalScan scan = scan_wal(dir.wal());
  EXPECT_FALSE(scan.tail_error.has_value());
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  ASSERT_EQ(scan.records.size(), n);
  EXPECT_EQ(scan.records.front().type, WalRecordType::kSessionOpen);
  EXPECT_EQ(scan.records.back().type, WalRecordType::kSessionClose);
  const auto pkt = decode_wal_packet(scan.records[2].payload);
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->session, 1u);
  EXPECT_EQ(pkt->index, 2u);
  EXPECT_EQ(mark_of(pkt->packet), 101u);
  const auto fix = decode_wal_fix(scan.records[n - 3].payload);
  ASSERT_TRUE(fix.has_value());
  EXPECT_EQ(fix->digest, 0xfeedULL);
  EXPECT_EQ(fix->time_s, 2.5);
  EXPECT_EQ(fix->raw.x, 1.0);
  EXPECT_EQ(fix->raw.y, 2.0);
  EXPECT_EQ(fix->tracked.x, 3.0);
  EXPECT_EQ(fix->tracked.y, 4.0);
  const auto poll = decode_wal_poll(scan.records[n - 2].payload);
  ASSERT_TRUE(poll.has_value());
  EXPECT_EQ(poll->now_s, 3.5);
}

TEST(Wal, MissingFileScansAsValidEmptyJournal) {
  TempDir dir;
  const WalScan scan = scan_wal(dir.wal());
  EXPECT_FALSE(scan.tail_error.has_value());
  EXPECT_EQ(scan.records.size(), 0u);
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_EQ(scan.file_bytes, 0u);
}

TEST(Wal, TornTailIsDetectedTruncatedAndAppendableAgain) {
  TempDir dir;
  const std::size_t n = write_small_journal(dir.wal(), 3);
  const WalScan whole = scan_wal(dir.wal());
  ASSERT_EQ(whole.records.size(), n);
  // Cut the final record off mid-frame: a crash between write() and
  // completion.
  std::filesystem::resize_file(dir.wal(), whole.file_bytes - 5);
  const WalScan torn = scan_wal(dir.wal());
  ASSERT_TRUE(torn.tail_error.has_value());
  EXPECT_EQ(torn.tail_error->kind, DurabilityErrorKind::kTornRecord);
  EXPECT_EQ(torn.records.size(), n - 1);
  EXPECT_LT(torn.valid_bytes, torn.file_bytes);
  // Recovery truncates the tail; the journal is whole-records again and
  // a fresh writer resumes behind the valid prefix.
  const auto cut = truncate_wal(dir.wal(), torn.valid_bytes);
  ASSERT_TRUE(cut.has_value());
  {
    WalWriter writer(dir.wal());
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ(writer.committed_bytes(), torn.valid_bytes);
    EXPECT_TRUE(writer.append_close({1}).has_value());
  }
  const WalScan again = scan_wal(dir.wal());
  EXPECT_FALSE(again.tail_error.has_value());
  EXPECT_EQ(again.records.size(), n);
  EXPECT_EQ(again.records.back().type, WalRecordType::kSessionClose);
}

TEST(Wal, BitFlipStopsScanAtFirstCorruptRecord) {
  TempDir dir;
  write_small_journal(dir.wal(), 4);
  const std::vector<std::uint8_t> pristine = read_file(dir.wal());
  ByteFaultPlan plan;
  plan.bit_flip_prob = 0.5;
  Rng rng(5);
  ByteFaultStats stats;
  const auto damaged = corrupt_wal_log(pristine, plan, rng, &stats);
  ASSERT_GE(stats.frames_corrupted(), 1u);
  write_file(dir.wal(), damaged);
  const WalScan scan = scan_wal(dir.wal());
  // Depending on where the bit landed (payload vs the length field) the
  // scan reports a checksum, length, or torn failure — but it always
  // stops exactly at the first damaged frame: corruption never replays,
  // and never hides the intact frames ahead of it.
  ASSERT_TRUE(scan.tail_error.has_value());
  EXPECT_EQ(scan.records.size(), stats.corrupted_frames.front());
}

TEST(Wal, LengthTamperRefusesWithoutGiantAllocation) {
  TempDir dir;
  write_small_journal(dir.wal(), 2);
  const std::vector<std::uint8_t> pristine = read_file(dir.wal());
  ByteFaultPlan plan;
  plan.length_tamper_prob = 1.0;
  Rng rng(9);
  ByteFaultStats stats;
  const auto damaged = corrupt_wal_log(pristine, plan, rng, &stats);
  ASSERT_GE(stats.frames_length_tampered, 1u);
  write_file(dir.wal(), damaged);
  const WalScan scan = scan_wal(dir.wal());
  ASSERT_TRUE(scan.tail_error.has_value());
  EXPECT_EQ(scan.records.size(), 0u);
  EXPECT_EQ(scan.valid_bytes, kWalHeaderBytes);
}

TEST(Wal, BadHeaderDiscardsWholeFileAndRecoversByRewrite) {
  TempDir dir;
  write_small_journal(dir.wal(), 1);
  flip_byte(dir.wal(), 0);  // clobber the magic
  const WalScan scan = scan_wal(dir.wal());
  ASSERT_TRUE(scan.tail_error.has_value());
  EXPECT_EQ(scan.tail_error->kind, DurabilityErrorKind::kBadFileHeader);
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_EQ(scan.records.size(), 0u);
  // The recovery flow: truncate to the (empty) valid prefix, reopen —
  // the writer lays down a fresh header and the journal is usable again.
  ASSERT_TRUE(truncate_wal(dir.wal(), 0).has_value());
  {
    WalWriter writer(dir.wal());
    ASSERT_TRUE(writer.ok());
    EXPECT_TRUE(writer.append_open({7}).has_value());
  }
  const WalScan again = scan_wal(dir.wal());
  EXPECT_FALSE(again.tail_error.has_value());
  ASSERT_EQ(again.records.size(), 1u);
}

TEST(Wal, ScanFromOffsetReadsOnlyTheSuffix) {
  TempDir dir;
  const std::size_t n = write_small_journal(dir.wal(), 3);
  const WalScan full = scan_wal(dir.wal());
  ASSERT_EQ(full.records.size(), n);
  EXPECT_EQ(full.skipped_bytes, 0u);
  // Resume at the third record's frame, as recovery does from a
  // snapshot's scan mark: records below it are counted valid unread.
  const std::uint64_t mark = full.records[2].offset;
  const WalScan suffix = scan_wal(dir.wal(), mark);
  EXPECT_FALSE(suffix.tail_error.has_value());
  ASSERT_EQ(suffix.records.size(), n - 2);
  EXPECT_EQ(suffix.skipped_bytes, mark - kWalHeaderBytes);
  EXPECT_EQ(suffix.records.front().offset, mark);
  EXPECT_EQ(suffix.valid_bytes, full.valid_bytes);
  EXPECT_EQ(suffix.records.back().type, WalRecordType::kSessionClose);
  // A mark at the exact tail scans an empty suffix, not an error.
  const WalScan at_tip = scan_wal(dir.wal(), full.file_bytes);
  EXPECT_FALSE(at_tip.tail_error.has_value());
  EXPECT_EQ(at_tip.records.size(), 0u);
  EXPECT_EQ(at_tip.valid_bytes, full.file_bytes);
  // A mark past the end (journal wiped/recreated underneath an old
  // snapshot) degrades to a full scan rather than trusting it.
  const WalScan fallback = scan_wal(dir.wal(), full.file_bytes + 1000);
  EXPECT_EQ(fallback.records.size(), n);
  EXPECT_EQ(fallback.skipped_bytes, 0u);
}

TEST(Wal, EnospcAppendFailsCleanAndLeavesWholeRecords) {
  TempDir dir;
  WalIoFailurePlan io;
  io.fail_after_bytes = 200;  // header + the open + one small packet
  WalWriter writer(dir.wal(), nullptr, io);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.append_open({1}).has_value());
  std::size_t committed = 1;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    WalPacket rec;
    rec.session = 1;
    rec.index = i + 1;
    rec.packet = marked_packet(10 + i);
    const auto result = writer.append_packet(rec);
    if (result.has_value()) {
      ++committed;
    } else {
      ++failures;
      EXPECT_EQ(result.error().kind, DurabilityErrorKind::kIoError);
    }
  }
  ASSERT_GE(failures, 1u);
  // The file holds exactly the committed records — a failed append left
  // no trace (ftruncate back to the last commit).
  const WalScan scan = scan_wal(dir.wal());
  EXPECT_FALSE(scan.tail_error.has_value());
  EXPECT_EQ(scan.records.size(), committed);
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  EXPECT_EQ(scan.valid_bytes, writer.committed_bytes());
}

TEST(Wal, ShortWritesResumeUntilTheRecordCommits) {
  TempDir dir;
  WalIoFailurePlan io;
  io.short_write_bytes = 7;  // every write() transfers at most 7 bytes
  const std::size_t n = write_small_journal(dir.wal(), 3, io);
  const WalScan scan = scan_wal(dir.wal());
  EXPECT_FALSE(scan.tail_error.has_value());
  EXPECT_EQ(scan.records.size(), n);
}

// --- snapshots --------------------------------------------------------------

SnapshotData small_snapshot(std::uint64_t seq) {
  SnapshotData data;
  data.seq = seq;
  data.next_session_id = 5;
  data.retired.offered = 12;
  data.retired.accepted = 11;
  SessionDurableState session;
  session.id = 3;
  session.stats.accepted = 4;
  session.applied_packets = 4;
  session.emitted_fixes = 1;
  data.sessions.push_back(std::move(session));
  SnapshotData::ReceiverEntry entry;
  entry.receiver_id = 1;
  entry.state.epoch = 2;
  entry.state.next_expected = 9;
  data.receivers.push_back(std::move(entry));
  return data;
}

TEST(Snapshot, WriteLoadRoundTripAndPrune) {
  TempDir dir;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const auto path = write_snapshot(dir.path, small_snapshot(seq), 2);
    ASSERT_TRUE(path.has_value()) << "seq " << seq;
  }
  // Prune kept only the newest two.
  std::size_t snaps = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.path)) {
    if (e.path().extension() == ".snap") ++snaps;
  }
  EXPECT_EQ(snaps, 2u);
  const SnapshotLoadResult loaded = load_latest_snapshot(dir.path);
  ASSERT_TRUE(loaded.data.has_value());
  EXPECT_EQ(loaded.discarded, 0u);
  EXPECT_EQ(loaded.max_seq_seen, 3u);
  EXPECT_EQ(loaded.data->seq, 3u);
  EXPECT_EQ(loaded.data->next_session_id, 5u);
  EXPECT_EQ(loaded.data->retired.offered, 12u);
  ASSERT_EQ(loaded.data->sessions.size(), 1u);
  EXPECT_EQ(loaded.data->sessions[0].id, 3u);
  EXPECT_EQ(loaded.data->sessions[0].applied_packets, 4u);
  ASSERT_EQ(loaded.data->receivers.size(), 1u);
  EXPECT_EQ(loaded.data->receivers[0].receiver_id, 1u);
  EXPECT_EQ(loaded.data->receivers[0].state.next_expected, 9u);
}

TEST(Snapshot, CorruptNewestFallsBackThenToFullReplay) {
  TempDir dir;
  const auto p1 = write_snapshot(dir.path, small_snapshot(1), 4);
  const auto p2 = write_snapshot(dir.path, small_snapshot(2), 4);
  ASSERT_TRUE(p1.has_value());
  ASSERT_TRUE(p2.has_value());
  flip_byte(*p2, 24);  // inside the checksum/payload
  const SnapshotLoadResult fell_back = load_latest_snapshot(dir.path);
  ASSERT_TRUE(fell_back.data.has_value());
  EXPECT_EQ(fell_back.data->seq, 1u);
  EXPECT_EQ(fell_back.discarded, 1u);
  EXPECT_EQ(fell_back.max_seq_seen, 2u);  // the burned ordinal stays burned
  flip_byte(*p1, 24);
  const SnapshotLoadResult none = load_latest_snapshot(dir.path);
  EXPECT_FALSE(none.data.has_value());
  EXPECT_EQ(none.discarded, 2u);
  EXPECT_EQ(none.max_seq_seen, 2u);
}

TEST(Snapshot, OtherFormatVersionIsDiscardedNotMisread) {
  // The header is [8B magic][u32 version, little-endian][u64 checksum],
  // and the checksum covers only the payload: rewriting the version
  // leaves a file that only the version check can reject.
  TempDir dir;
  const auto path = write_snapshot(dir.path, small_snapshot(1), 2);
  ASSERT_TRUE(path.has_value());
  ASSERT_TRUE(load_latest_snapshot(dir.path).data.has_value());
  std::vector<std::uint8_t> bytes = read_file(*path);
  const std::uint32_t other = kSnapshotVersion - 1;
  for (std::size_t i = 0; i < 4; ++i) {
    bytes.at(8 + i) = static_cast<std::uint8_t>(other >> (8 * i));
  }
  write_file(*path, bytes);
  const SnapshotLoadResult loaded = load_latest_snapshot(dir.path);
  EXPECT_FALSE(loaded.data.has_value());
  EXPECT_EQ(loaded.discarded, 1u);
}

TEST(Snapshot, StrayTmpIsIgnoredOnLoadAndSweptOnPublish) {
  TempDir dir;
  const std::string stray = dir.path + "/snapshot-00000000000000000009.snap.tmp";
  write_file(stray, {1, 2, 3});
  const SnapshotLoadResult loaded = load_latest_snapshot(dir.path);
  EXPECT_FALSE(loaded.data.has_value());
  EXPECT_EQ(loaded.discarded, 0u);
  ASSERT_TRUE(write_snapshot(dir.path, small_snapshot(1), 2).has_value());
  EXPECT_FALSE(std::filesystem::exists(stray));
}

// --- durable session workload ----------------------------------------------

/// Simulated feed: one office target, packets interleaved across APs.
struct Feed {
  ExperimentRunner runner;
  std::vector<ApCapture> captures;

  explicit Feed(std::size_t packets, Vec2 target = {6.0, 3.5})
      : runner(kLink, office_deployment(), make_config(packets)) {
    Rng rng(11);
    captures = runner.simulate_captures(target, rng);
  }
  static ExperimentConfig make_config(std::size_t packets) {
    ExperimentConfig config;
    config.packets_per_group = packets;
    return config;
  }
  [[nodiscard]] std::vector<ArrayPose> poses() const {
    std::vector<ArrayPose> out;
    for (const auto& capture : captures) out.push_back(capture.pose);
    return out;
  }
};

SessionConfig base_session(const Feed& feed, std::size_t group_size) {
  SessionConfig cfg;
  cfg.streaming.group_size = group_size;
  cfg.streaming.server.localizer.area_min = feed.runner.deployment().area_min;
  cfg.streaming.server.localizer.area_max = feed.runner.deployment().area_max;
  cfg.aps = feed.poses();
  cfg.seed = 77;
  // Deep queue + pump-per-offer keeps occupancy below every degrade
  // rung, so every run plans all rounds at full fidelity.
  cfg.overload.queue_capacity = 512;
  return cfg;
}

constexpr std::size_t kPacketsPerAp = 6;
constexpr std::size_t kGroup = 3;  // 6 packets / group 3 -> 2 fixes
constexpr double kPollTime = 1.0e3;

const Feed& shared_feed() {
  static const Feed feed(kPacketsPerAp);
  return feed;
}

using FixesByRound = std::map<std::uint64_t, LocationFix>;

/// Records one emitted fix; a fix re-emitted under the same durable
/// round ordinal (recovery replay overlapping the pre-crash stream)
/// must be byte-identical to the first sighting.
void note_fix(FixesByRound& by_round, const LocationFix& fix) {
  ASSERT_GT(fix.durable_round_index, 0u);
  const auto [it, inserted] = by_round.emplace(fix.durable_round_index, fix);
  if (!inserted) {
    EXPECT_EQ(it->second.raw.x, fix.raw.x);
    EXPECT_EQ(it->second.raw.y, fix.raw.y);
    EXPECT_EQ(it->second.tracked.x, fix.tracked.x);
    EXPECT_EQ(it->second.tracked.y, fix.tracked.y);
    EXPECT_EQ(it->second.time_s, fix.time_s);
  }
}

void expect_same_fixes(const FixesByRound& got, const FixesByRound& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [round, fix] : want) {
    const auto it = got.find(round);
    ASSERT_NE(it, got.end()) << "round " << round << " missing";
    EXPECT_EQ(it->second.raw.x, fix.raw.x) << "round " << round;
    EXPECT_EQ(it->second.raw.y, fix.raw.y) << "round " << round;
    EXPECT_EQ(it->second.tracked.x, fix.tracked.x) << "round " << round;
    EXPECT_EQ(it->second.tracked.y, fix.tracked.y) << "round " << round;
    EXPECT_EQ(it->second.time_s, fix.time_s) << "round " << round;
    EXPECT_EQ(it->second.degraded, fix.degraded) << "round " << round;
  }
}

/// The session, recovered or fresh.
SessionId ensure_session(DurableSessionManager& dm) {
  const auto ids = dm.manager().session_ids();
  if (!ids.empty()) return ids.front();
  return dm.open_session(base_session(shared_feed(), kGroup));
}

/// Drives the scripted direct-feed workload to completion from wherever
/// `dm` currently is: every accepted packet at or below applied_packets
/// is already inside the recovered state, so the resume point *is* the
/// durable replay mark. Throws CrashInjected when a crash is armed.
void drive_direct(DurableSessionManager& dm, FixesByRound& by_round) {
  const Feed& feed = shared_feed();
  const SessionId id = ensure_session(dm);
  const std::size_t naps = feed.captures.size();
  const std::size_t total = kPacketsPerAp * naps;
  for (std::uint64_t i = dm.manager().applied_packets(id); i < total; ++i) {
    const std::size_t p = i / naps;
    const std::size_t a = i % naps;
    ASSERT_TRUE(dm.offer(id, a, feed.captures[a].packets[p]).admitted());
    for (const LocationFix& fix : dm.pump(id)) note_fix(by_round, fix);
  }
  if (dm.manager().applied_polls(id) == 0) {
    if (const auto fix = dm.poll(id, kPollTime)) note_fix(by_round, *fix);
  }
}

DurabilityConfig durable_config(const std::string& dir, CrashInjector* crash) {
  DurabilityConfig cfg;
  cfg.enabled = true;
  cfg.dir = dir;
  cfg.snapshot_every_fixes = 1;
  cfg.snapshots_to_keep = 2;
  cfg.crash = crash;
  return cfg;
}

SessionManagerConfig serial_manager() {
  SessionManagerConfig cfg;
  cfg.num_threads = 1;
  return cfg;
}

DurableSessionManager::SessionConfigFn shared_config_of() {
  return [](SessionId) { return base_session(shared_feed(), kGroup); };
}

struct GoldenRun {
  FixesByRound fixes;
  SessionStats stats;
  std::array<std::uint64_t, kCrashPointCount> visits{};
};

/// The uncrashed reference: the same workload, durable, never killed.
/// Its fixes are the byte-identical target and its per-point visit
/// counts parameterize the sweep.
const GoldenRun& golden_run() {
  static const GoldenRun golden = [] {
    GoldenRun out;
    TempDir dir;
    CrashInjector inj;  // unarmed: counts visits only
    DurableSessionManager dm(kLink, serial_manager(),
                             durable_config(dir.path, &inj));
    (void)dm.recover(shared_config_of());
    drive_direct(dm, out.fixes);
    out.stats = dm.manager().session_stats(ensure_session(dm));
    for (std::size_t p = 0; p < kCrashPointCount; ++p) {
      out.visits[p] = inj.visits(static_cast<CrashPoint>(p));
    }
    EXPECT_EQ(out.fixes.size(), kPacketsPerAp / kGroup);
    EXPECT_EQ(dm.journal_failures(), 0u);
    EXPECT_GE(dm.snapshots_written(), out.fixes.size());
    return out;
  }();
  return golden;
}

TEST(DurableSession, DisabledIsPassThroughWithByteIdenticalFixes) {
  const Feed& feed = shared_feed();
  const SessionConfig scfg = base_session(feed, kGroup);
  std::vector<LocationFix> plain_fixes;
  {
    SessionManager plain(kLink, serial_manager());
    const SessionId id = plain.open_session(scfg);
    for (std::size_t p = 0; p < kPacketsPerAp; ++p) {
      for (std::size_t a = 0; a < feed.captures.size(); ++a) {
        ASSERT_TRUE(plain.offer(id, a, feed.captures[a].packets[p]).admitted());
        for (auto& fix : plain.pump(id)) plain_fixes.push_back(std::move(fix));
      }
    }
  }
  DurableSessionManager dm(kLink, serial_manager(), DurabilityConfig{});
  FixesByRound durable_fixes;
  drive_direct(dm, durable_fixes);  // no recover() needed when disabled
  ASSERT_EQ(durable_fixes.size(), plain_fixes.size());
  for (const auto& fix : plain_fixes) {
    const auto it = durable_fixes.find(fix.durable_round_index);
    ASSERT_NE(it, durable_fixes.end());
    EXPECT_EQ(it->second.raw.x, fix.raw.x);
    EXPECT_EQ(it->second.raw.y, fix.raw.y);
    EXPECT_EQ(it->second.tracked.x, fix.tracked.x);
    EXPECT_EQ(it->second.tracked.y, fix.tracked.y);
  }
  EXPECT_EQ(dm.journal_failures(), 0u);
  EXPECT_EQ(dm.snapshots_written(), 0u);
}

TEST(DurableSession, FullJournalReplayRegeneratesEveryFixByteIdentically) {
  const GoldenRun& golden = golden_run();
  TempDir dir;
  DurabilityConfig cfg = durable_config(dir.path, nullptr);
  cfg.snapshot_every_fixes = 0;  // journal-only: replay from the start
  {
    DurableSessionManager dm(kLink, serial_manager(), cfg);
    (void)dm.recover(shared_config_of());
    FixesByRound fixes;
    drive_direct(dm, fixes);
    expect_same_fixes(fixes, golden.fixes);
  }
  DurableSessionManager dm2(kLink, serial_manager(), cfg);
  const RecoveryReport report = dm2.recover(shared_config_of());
  EXPECT_FALSE(report.snapshot_loaded);
  EXPECT_EQ(report.fix_mismatches, 0u);
  EXPECT_EQ(report.sessions_recovered, 1u);
  EXPECT_EQ(report.journal_bytes_truncated, 0u);
  FixesByRound regenerated;
  for (const auto& [sid, fix] : report.recovered_fixes) {
    note_fix(regenerated, fix);
  }
  expect_same_fixes(regenerated, golden.fixes);
  const SessionStats st = dm2.manager().session_stats(ensure_session(dm2));
  EXPECT_EQ(st.accepted, golden.stats.accepted);
  EXPECT_EQ(st.offered, golden.stats.offered);
  EXPECT_EQ(st.fixes, golden.stats.fixes);
}

TEST(DurableSession, SnapshotBoundsReplayAndResumesMidStream) {
  const GoldenRun& golden = golden_run();
  const Feed& feed = shared_feed();
  const std::size_t naps = feed.captures.size();
  const std::size_t half = (kPacketsPerAp * naps) / 2;
  TempDir dir;
  FixesByRound fixes;
  {
    DurableSessionManager dm(kLink, serial_manager(),
                             durable_config(dir.path, nullptr));
    (void)dm.recover(shared_config_of());
    const SessionId id = ensure_session(dm);
    for (std::size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(
          dm.offer(id, i % naps, feed.captures[i % naps].packets[i / naps])
              .admitted());
      for (const LocationFix& fix : dm.pump(id)) note_fix(fixes, fix);
    }
    ASSERT_GE(fixes.size(), 1u);  // a snapshot exists mid-stream
  }
  DurableSessionManager dm2(kLink, serial_manager(),
                            durable_config(dir.path, nullptr));
  const RecoveryReport report = dm2.recover(shared_config_of());
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.fix_mismatches, 0u);
  // The snapshot bounded the replay: strictly fewer packets replayed
  // than were accepted in total — and the scan itself, which started at
  // the snapshot's journal mark instead of re-reading the whole file.
  EXPECT_LT(report.packets_replayed, half);
  EXPECT_GT(report.journal_bytes_skipped, 0u);
  for (const auto& [sid, fix] : report.recovered_fixes) note_fix(fixes, fix);
  drive_direct(dm2, fixes);
  expect_same_fixes(fixes, golden.fixes);
  const SessionStats st = dm2.manager().session_stats(ensure_session(dm2));
  EXPECT_EQ(st.accepted, golden.stats.accepted);
  EXPECT_EQ(st.fixes, golden.stats.fixes);
}

TEST(DurableSession, EnospcKeepsServingFixesAndCountsEveryFailure) {
  const GoldenRun& golden = golden_run();
  TempDir dir;
  DurabilityConfig cfg = durable_config(dir.path, nullptr);
  cfg.snapshot_every_fixes = 0;
  cfg.io.fail_after_bytes = 4096;  // the "disk" fills after a few records
  DurableSessionManager dm(kLink, serial_manager(), cfg);
  (void)dm.recover(shared_config_of());
  FixesByRound fixes;
  drive_direct(dm, fixes);
  // Availability over durability: every fix still emitted, every failed
  // append counted, and the journal on disk is still whole records.
  expect_same_fixes(fixes, golden.fixes);
  EXPECT_GE(dm.journal_failures(), 1u);
  const WalScan scan = scan_wal(dir.path + "/journal.wal");
  EXPECT_FALSE(scan.tail_error.has_value());
  EXPECT_EQ(scan.valid_bytes, scan.file_bytes);
  EXPECT_LE(scan.file_bytes, cfg.io.fail_after_bytes);
}

TEST(DurableSession, ShortWritesAreInvisibleToRecovery) {
  const GoldenRun& golden = golden_run();
  TempDir dir;
  DurabilityConfig cfg = durable_config(dir.path, nullptr);
  cfg.snapshot_every_fixes = 0;
  cfg.io.short_write_bytes = 11;
  {
    DurableSessionManager dm(kLink, serial_manager(), cfg);
    (void)dm.recover(shared_config_of());
    FixesByRound fixes;
    drive_direct(dm, fixes);
    EXPECT_EQ(dm.journal_failures(), 0u);
  }
  DurableSessionManager dm2(kLink, serial_manager(), cfg);
  const RecoveryReport report = dm2.recover(shared_config_of());
  EXPECT_EQ(report.fix_mismatches, 0u);
  FixesByRound regenerated;
  for (const auto& [sid, fix] : report.recovered_fixes) {
    note_fix(regenerated, fix);
  }
  expect_same_fixes(regenerated, golden.fixes);
}

// --- close / reopen across recovery ----------------------------------------

TEST(DurableSession, SessionIdsNeverReusedAndRetirementExactlyOnceAcrossRecovery) {
  const Feed& feed = shared_feed();
  TempDir dir;
  SessionId first = 0;
  SessionId second = 0;
  std::uint64_t accepted_first = 0;
  {
    DurabilityConfig cfg = durable_config(dir.path, nullptr);
    cfg.snapshot_every_fixes = 0;
    DurableSessionManager dm(kLink, serial_manager(), cfg);
    (void)dm.recover(shared_config_of());
    first = dm.open_session(base_session(feed, kGroup));
    for (std::size_t a = 0; a < feed.captures.size(); ++a) {
      ASSERT_TRUE(dm.offer(first, a, feed.captures[a].packets[0]).admitted());
      (void)dm.pump(first);
    }
    accepted_first = dm.manager().session_stats(first).accepted;
    dm.close_session(first);
    second = dm.open_session(base_session(feed, kGroup));
    ASSERT_TRUE(dm.offer(second, 0, feed.captures[0].packets[0]).admitted());
    (void)dm.pump(second);
  }
  DurabilityConfig cfg = durable_config(dir.path, nullptr);
  cfg.snapshot_every_fixes = 0;
  DurableSessionManager dm2(kLink, serial_manager(), cfg);
  const RecoveryReport report = dm2.recover(shared_config_of());
  // Both opens replayed; the journaled close retired the first session
  // again — exactly once, through the idempotent close path.
  EXPECT_EQ(report.sessions_recovered, 2u);
  const auto ids = dm2.manager().session_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids.front(), second);
  // The id horizon survived: a fresh session never reuses a dead id,
  // even though the dead id only ever existed in the journal.
  const SessionId third = dm2.open_session(base_session(feed, kGroup));
  EXPECT_GT(third, second);
  EXPECT_NE(third, first);
  // The retired aggregate holds the first session's packets exactly once.
  const SessionStats global = dm2.manager().global_stats();
  EXPECT_EQ(global.accepted,
            accepted_first + dm2.manager().session_stats(second).accepted);
  // Re-closing a journal-closed id is a no-op, not a double retirement.
  dm2.close_session(second);
  dm2.close_session(second);
  EXPECT_EQ(dm2.manager().global_stats().accepted, global.accepted);
}

TEST(DurableSession, FsyncOptInPreservesTheRecoveryContract) {
  const GoldenRun& golden = golden_run();
  const Feed& feed = shared_feed();
  const std::size_t naps = feed.captures.size();
  const std::size_t half = (kPacketsPerAp * naps) / 2;
  TempDir dir;
  DurabilityConfig cfg = durable_config(dir.path, nullptr);
  cfg.fsync = true;
  FixesByRound fixes;
  {
    DurableSessionManager dm(kLink, serial_manager(), cfg);
    (void)dm.recover(shared_config_of());
    const SessionId id = ensure_session(dm);
    for (std::size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(
          dm.offer(id, i % naps, feed.captures[i % naps].packets[i / naps])
              .admitted());
      for (const LocationFix& fix : dm.pump(id)) note_fix(fixes, fix);
    }
    EXPECT_EQ(dm.journal_failures(), 0u);
    EXPECT_GE(dm.snapshots_written(), 1u);
  }
  DurableSessionManager dm2(kLink, serial_manager(), cfg);
  const RecoveryReport report = dm2.recover(shared_config_of());
  EXPECT_EQ(report.fix_mismatches, 0u);
  for (const auto& [sid, fix] : report.recovered_fixes) note_fix(fixes, fix);
  drive_direct(dm2, fixes);
  expect_same_fixes(fixes, golden.fixes);
}

/// Two sessions pumped from two threads while every fix trips a cadence
/// snapshot (which reads *both* sessions' state): the journal mutex
/// must serialize the snapshot against the other thread's in-flight
/// pump. TSan in the CI crash-recovery job is the real assertion here.
TEST(DurableSession, CrossThreadPumpsSerializeAgainstCadenceSnapshots) {
  const GoldenRun& golden = golden_run();
  const Feed& feed = shared_feed();
  TempDir dir;
  DurableSessionManager dm(kLink, serial_manager(),
                           durable_config(dir.path, nullptr));
  (void)dm.recover(shared_config_of());
  const SessionId a = dm.open_session(base_session(feed, kGroup));
  const SessionId b = dm.open_session(base_session(feed, kGroup));
  const std::size_t naps = feed.captures.size();
  auto drive = [&](SessionId id, std::vector<LocationFix>& out, bool& ok) {
    ok = true;
    for (std::uint64_t i = 0; i < kPacketsPerAp * naps; ++i) {
      const std::size_t p = static_cast<std::size_t>(i) / naps;
      const std::size_t ap = static_cast<std::size_t>(i) % naps;
      if (!dm.offer(id, ap, feed.captures[ap].packets[p]).admitted()) {
        ok = false;  // gtest assertions are not thread-safe; flag instead
        return;
      }
      for (LocationFix& fix : dm.pump(id)) out.push_back(std::move(fix));
    }
  };
  std::vector<LocationFix> fixes_a;
  std::vector<LocationFix> fixes_b;
  bool ok_a = false;
  bool ok_b = false;
  std::thread ta([&] { drive(a, fixes_a, ok_a); });
  std::thread tb([&] { drive(b, fixes_b, ok_b); });
  ta.join();
  tb.join();
  ASSERT_TRUE(ok_a);
  ASSERT_TRUE(ok_b);
  EXPECT_EQ(dm.journal_failures(), 0u);
  // Each session ran the golden workload independently; interleaved
  // journaling and snapshots must not perturb either fix stream.
  FixesByRound by_round_a;
  FixesByRound by_round_b;
  for (const LocationFix& fix : fixes_a) note_fix(by_round_a, fix);
  for (const LocationFix& fix : fixes_b) note_fix(by_round_b, fix);
  expect_same_fixes(by_round_a, golden.fixes);
  expect_same_fixes(by_round_b, golden.fixes);
}

// --- the kill-point sweep ---------------------------------------------------

std::vector<std::uint64_t> sweep_seeds() {
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  if (const char* env = std::getenv("SPOTFI_CRASH_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
    std::cout << "[crash] SPOTFI_CRASH_SEED=" << seeds.back() << std::endl;
  }
  return seeds;
}

/// One armed crash run: drive until the process "dies", recover into a
/// fresh image, finish the workload, and hand back everything observed.
struct CrashRunResult {
  bool crashed = false;
  FixesByRound fixes;
  RecoveryReport report;
  SessionStats stats;
  std::uint64_t journal_failures = 0;
};

CrashRunResult run_crashed_direct(CrashPoint point, std::uint64_t nth,
                                  std::uint64_t seed) {
  CrashRunResult out;
  TempDir dir;
  CrashInjector inj;
  inj.arm(point, nth, seed);
  {
    DurableSessionManager dm(kLink, serial_manager(),
                             durable_config(dir.path, &inj));
    (void)dm.recover(shared_config_of());
    try {
      drive_direct(dm, out.fixes);
    } catch (const CrashInjected&) {
      out.crashed = true;
    }
  }  // the dying process's memory is gone; only the files remain
  inj.disarm();
  DurableSessionManager dm(kLink, serial_manager(),
                           durable_config(dir.path, &inj));
  out.report = dm.recover(shared_config_of());
  for (const auto& [sid, fix] : out.report.recovered_fixes) {
    note_fix(out.fixes, fix);
  }
  drive_direct(dm, out.fixes);
  out.stats = dm.manager().session_stats(ensure_session(dm));
  out.journal_failures = dm.journal_failures();
  return out;
}

TEST(DurableCrash, EveryKillPointRecoversToByteIdenticalFixes) {
  const GoldenRun& golden = golden_run();
  for (std::size_t p = 0; p < kCrashPointCount; ++p) {
    const auto point = static_cast<CrashPoint>(p);
    if (point == CrashPoint::kRecoveryTruncate) continue;  // needs a torn
    // tail first — the dedicated double-crash test below covers it.
    ASSERT_GT(golden.visits[p], 0u)
        << to_string(point) << " never visited by the reference run";
    for (const std::uint64_t seed : sweep_seeds()) {
      // A seeded visit ordinal: every seed kills a different occurrence
      // of the same I/O boundary.
      const std::uint64_t nth =
          1 + (seed * 0x9e3779b97f4a7c15ULL) % golden.visits[p];
      SCOPED_TRACE(std::string("point=") + to_string(point) +
                   " nth=" + std::to_string(nth) +
                   " seed=" + std::to_string(seed));
      const CrashRunResult run = run_crashed_direct(point, nth, seed);
      // The workload is deterministic, so the armed visit must occur.
      ASSERT_TRUE(run.crashed);
      EXPECT_EQ(run.report.fix_mismatches, 0u);
      expect_same_fixes(run.fixes, golden.fixes);
      // Exactly-once accounting across the crash: nothing lost, nothing
      // applied twice, partitions exact.
      EXPECT_EQ(run.stats.accepted, golden.stats.accepted);
      EXPECT_EQ(run.stats.offered,
                run.stats.accepted + run.stats.shed_packets);
      EXPECT_EQ(run.stats.shed_packets, 0u);
      EXPECT_EQ(run.stats.fixes, golden.stats.fixes);
    }
  }
}

using FixesBySession = std::map<SessionId, FixesByRound>;

/// Two tenants on the shared feed, resumable from wherever `dm` is: A
/// is pumped after each of its offers, so its cadence snapshots publish
/// while B's packets sit in B's queue; B is pumped once, at the end.
/// Each session resumes at its durable replay mark.
void drive_two_tenants(DurableSessionManager& dm, FixesBySession& fixes) {
  const Feed& feed = shared_feed();
  const std::size_t naps = feed.captures.size();
  std::vector<SessionId> ids = dm.manager().session_ids();
  while (ids.size() < 2) {
    ids.push_back(dm.open_session(base_session(feed, kGroup)));
  }
  const SessionId a = ids[0];
  const SessionId b = ids[1];
  const std::uint64_t from_a = dm.manager().applied_packets(a);
  const std::uint64_t from_b = dm.manager().applied_packets(b);
  for (std::size_t i = 0; i < kPacketsPerAp * naps; ++i) {
    const CsiPacket& packet = feed.captures[i % naps].packets[i / naps];
    if (i >= from_a) {
      ASSERT_TRUE(dm.offer(a, i % naps, packet).admitted());
      for (const LocationFix& fix : dm.pump(a)) note_fix(fixes[a], fix);
    }
    if (i >= from_b) {
      ASSERT_TRUE(dm.offer(b, i % naps, packet).admitted());
    }
  }
  for (const LocationFix& fix : dm.pump(b)) note_fix(fixes[b], fix);
}

/// The kill-point sweep over the two-tenant workload: wherever the
/// process dies — mid-append, mid-snapshot, after publish — B's queued
/// packets and both tenants' fixes come back byte-identical.
TEST(DurableCrash, EveryKillPointKeepsAnotherSessionsQueuedPackets) {
  FixesBySession want;
  std::array<std::uint64_t, kCrashPointCount> visits{};
  {
    TempDir dir;
    CrashInjector inj;  // unarmed: counts visits only
    DurableSessionManager dm(kLink, serial_manager(),
                             durable_config(dir.path, &inj));
    (void)dm.recover(shared_config_of());
    drive_two_tenants(dm, want);
    for (std::size_t p = 0; p < kCrashPointCount; ++p) {
      visits[p] = inj.visits(static_cast<CrashPoint>(p));
    }
  }
  ASSERT_EQ(want.size(), 2u);
  for (std::size_t p = 0; p < kCrashPointCount; ++p) {
    const auto point = static_cast<CrashPoint>(p);
    if (point == CrashPoint::kRecoveryTruncate) continue;  // as above
    ASSERT_GT(visits[p], 0u) << to_string(point);
    for (const std::uint64_t seed : sweep_seeds()) {
      const std::uint64_t nth = 1 + (seed * 0x9e3779b97f4a7c15ULL) % visits[p];
      SCOPED_TRACE(std::string("point=") + to_string(point) +
                   " nth=" + std::to_string(nth) +
                   " seed=" + std::to_string(seed));
      TempDir dir;
      CrashInjector inj;
      inj.arm(point, nth, seed);
      FixesBySession got;
      bool crashed = false;
      {
        DurableSessionManager dm(kLink, serial_manager(),
                                 durable_config(dir.path, &inj));
        (void)dm.recover(shared_config_of());
        try {
          drive_two_tenants(dm, got);
        } catch (const CrashInjected&) {
          crashed = true;
        }
      }
      ASSERT_TRUE(crashed);
      inj.disarm();
      DurableSessionManager dm(kLink, serial_manager(),
                               durable_config(dir.path, &inj));
      const RecoveryReport report = dm.recover(shared_config_of());
      EXPECT_EQ(report.fix_mismatches, 0u);
      for (const auto& [sid, fix] : report.recovered_fixes) {
        note_fix(got[sid], fix);
      }
      drive_two_tenants(dm, got);
      ASSERT_EQ(got.size(), want.size());
      for (const auto& [sid, fixes] : want) expect_same_fixes(got[sid], fixes);
    }
  }
}

TEST(DurableCrash, CrashDuringRecoveryTruncateIsItselfRecoverable) {
  const GoldenRun& golden = golden_run();
  const std::uint64_t torn_visits =
      golden.visits[static_cast<std::size_t>(CrashPoint::kJournalAppendTorn)];
  ASSERT_GT(torn_visits, 0u);
  // First crash: a torn append leaves a partial record at the tail. The
  // seeded prefix can be empty, so hunt for a seed that really tears.
  std::optional<TempDir> dir;
  FixesByRound fixes;
  bool torn = false;
  for (std::uint64_t seed = 1; seed <= 8 && !torn; ++seed) {
    dir.emplace();
    fixes.clear();
    CrashInjector inj;
    inj.arm(CrashPoint::kJournalAppendTorn, 1 + torn_visits / 2, seed);
    DurableSessionManager dm(kLink, serial_manager(),
                             durable_config(dir->path, &inj));
    (void)dm.recover(shared_config_of());
    bool crashed = false;
    try {
      drive_direct(dm, fixes);
    } catch (const CrashInjected&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
    const WalScan scan = scan_wal(dir->wal());
    torn = scan.file_bytes > scan.valid_bytes;
  }
  ASSERT_TRUE(torn) << "no seed produced a non-empty torn prefix";
  // Second crash: recovery dies at the truncate itself. The torn tail
  // must still be on disk for the next attempt.
  CrashInjector inj;
  inj.arm(CrashPoint::kRecoveryTruncate, 1, 7);
  {
    DurableSessionManager dm(kLink, serial_manager(),
                             durable_config(dir->path, &inj));
    bool crashed = false;
    try {
      (void)dm.recover(shared_config_of());
    } catch (const CrashInjected&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed);
  }
  ASSERT_TRUE(scan_wal(dir->wal()).tail_error.has_value());
  // Third attempt recovers clean and the workload completes to the same
  // byte-identical fix stream.
  inj.disarm();
  DurableSessionManager dm(kLink, serial_manager(),
                           durable_config(dir->path, &inj));
  const RecoveryReport report = dm.recover(shared_config_of());
  EXPECT_GT(report.journal_bytes_truncated, 0u);
  EXPECT_EQ(report.fix_mismatches, 0u);
  for (const auto& [sid, fix] : report.recovered_fixes) note_fix(fixes, fix);
  drive_direct(dm, fixes);
  expect_same_fixes(fixes, golden.fixes);
}

/// Regression for a lost-fix window: a pump() batch with more than one
/// fix used to trip the cadence snapshot on the *first* fix — after the
/// manager had already advanced emitted_fixes for the whole batch but
/// before the later fixes' records were appended. A crash right after
/// kSnapshotPublished then lost those fixes for good: replay skipped
/// their generating packets (inside the snapshot) and no journaled
/// values existed to re-emit. The cadence now fires once per batch,
/// after every fix of the batch is in the journal.
TEST(DurableCrash, MultiFixPumpBatchSurvivesSnapshotPublishCrash) {
  const Feed& feed = shared_feed();
  const std::size_t naps = feed.captures.size();
  const std::size_t total = kPacketsPerAp * naps;
  // Reference: offer everything, then a single pump that emits the
  // whole multi-fix batch, then the timer poll.
  FixesByRound want;
  {
    TempDir dir;
    DurableSessionManager dm(kLink, serial_manager(),
                             durable_config(dir.path, nullptr));
    (void)dm.recover(shared_config_of());
    const SessionId id = dm.open_session(base_session(feed, kGroup));
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_TRUE(
          dm.offer(id, i % naps, feed.captures[i % naps].packets[i / naps])
              .admitted());
    }
    const std::vector<LocationFix> batch = dm.pump(id);
    ASSERT_GE(batch.size(), 2u) << "workload must emit a multi-fix batch";
    for (const LocationFix& fix : batch) note_fix(want, fix);
    if (const auto fix = dm.poll(id, kPollTime)) note_fix(want, *fix);
  }
  for (const std::uint64_t seed : sweep_seeds()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TempDir dir;
    CrashInjector inj;
    inj.arm(CrashPoint::kSnapshotPublished, 1, seed);
    FixesByRound fixes;
    {
      DurableSessionManager dm(kLink, serial_manager(),
                               durable_config(dir.path, &inj));
      (void)dm.recover(shared_config_of());
      const SessionId id = dm.open_session(base_session(feed, kGroup));
      for (std::size_t i = 0; i < total; ++i) {
        ASSERT_TRUE(
            dm.offer(id, i % naps, feed.captures[i % naps].packets[i / naps])
                .admitted());
      }
      // The batch's cadence snapshot publishes, then the "process" dies
      // before pump() returns — the caller never sees a single fix.
      EXPECT_THROW((void)dm.pump(id), CrashInjected);
    }
    inj.disarm();
    DurableSessionManager dm(kLink, serial_manager(),
                             durable_config(dir.path, &inj));
    const RecoveryReport report = dm.recover(shared_config_of());
    EXPECT_EQ(report.fix_mismatches, 0u);
    // Every fix of the batch must come back from the journal: the
    // snapshot covered them all, so recovery re-emits all of them.
    for (const auto& [sid, fix] : report.recovered_fixes) {
      note_fix(fixes, fix);
    }
    const SessionId id = ensure_session(dm);
    if (dm.manager().applied_polls(id) == 0) {
      if (const auto fix = dm.poll(id, kPollTime)) note_fix(fixes, *fix);
    }
    expect_same_fixes(fixes, want);
  }
}

/// A cadence snapshot published inside one session's pump() holds none
/// of the packets still queued for another session, so its scan mark
/// must stay at or below the oldest of them: otherwise those journaled,
/// acked but unpumped packets fall below the mark and recovery never
/// replays them.
TEST(DurableCrash, QueuedPacketsOfAnotherSessionSurviveACadenceSnapshot) {
  const Feed& feed = shared_feed();
  const std::size_t naps = feed.captures.size();
  const std::size_t total = kPacketsPerAp * naps;
  const auto offer_both = [&](DurableSessionManager& dm, SessionId a,
                              SessionId b) {
    for (std::size_t i = 0; i < total; ++i) {
      const CsiPacket& packet = feed.captures[i % naps].packets[i / naps];
      ASSERT_TRUE(dm.offer(a, i % naps, packet).admitted());
      ASSERT_TRUE(dm.offer(b, i % naps, packet).admitted());
    }
  };
  // Reference: the same feed, uncrashed, with B pumped too.
  FixesByRound want;
  {
    TempDir dir;
    DurableSessionManager dm(kLink, serial_manager(),
                             durable_config(dir.path, nullptr));
    (void)dm.recover(shared_config_of());
    const SessionId a = dm.open_session(base_session(feed, kGroup));
    const SessionId b = dm.open_session(base_session(feed, kGroup));
    offer_both(dm, a, b);
    (void)dm.pump(a);
    for (const LocationFix& fix : dm.pump(b)) note_fix(want, fix);
  }
  ASSERT_EQ(want.size(), kPacketsPerAp / kGroup);

  TempDir dir;
  SessionId b = 0;
  {
    DurableSessionManager dm(kLink, serial_manager(),
                             durable_config(dir.path, nullptr));
    (void)dm.recover(shared_config_of());
    const SessionId a = dm.open_session(base_session(feed, kGroup));
    b = dm.open_session(base_session(feed, kGroup));
    offer_both(dm, a, b);
    // A's pump publishes a cadence snapshot while B's whole feed is
    // still queued; then the process dies without pumping B.
    ASSERT_FALSE(dm.pump(a).empty());
    ASSERT_GE(dm.snapshots_written(), 1u);
  }
  DurableSessionManager dm(kLink, serial_manager(),
                           durable_config(dir.path, nullptr));
  const RecoveryReport report = dm.recover(shared_config_of());
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.fix_mismatches, 0u);
  EXPECT_EQ(dm.manager().applied_packets(b), total);
  FixesByRound got;
  for (const auto& [sid, fix] : report.recovered_fixes) {
    if (sid == b) note_fix(got, fix);
  }
  expect_same_fixes(got, want);
}

/// The close record hits the journal before the in-memory close, same
/// journal-before-effect ordering as packets: whichever side of the
/// append the crash lands on, recovery and the caller agree.
TEST(DurableCrash, CloseJournalsBeforeTheInMemoryEffect) {
  const Feed& feed = shared_feed();
  // (a) Crash before any close byte reaches the journal: the caller
  // never observed the close complete, so the session survives
  // recovery and a retried close works.
  {
    TempDir dir;
    CrashInjector inj;
    DurabilityConfig cfg = durable_config(dir.path, &inj);
    cfg.snapshot_every_fixes = 0;
    SessionId id = 0;
    {
      DurableSessionManager dm(kLink, serial_manager(), cfg);
      (void)dm.recover(shared_config_of());
      id = dm.open_session(base_session(feed, kGroup));
      ASSERT_TRUE(dm.offer(id, 0, feed.captures[0].packets[0]).admitted());
      inj.arm(CrashPoint::kJournalAppendStart,
              inj.visits(CrashPoint::kJournalAppendStart) + 1, 3);
      EXPECT_THROW(dm.close_session(id), CrashInjected);
    }
    inj.disarm();
    DurabilityConfig cfg2 = durable_config(dir.path, nullptr);
    cfg2.snapshot_every_fixes = 0;
    DurableSessionManager dm2(kLink, serial_manager(), cfg2);
    (void)dm2.recover(shared_config_of());
    const auto ids = dm2.manager().session_ids();
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(ids.front(), id);
    dm2.close_session(id);
    EXPECT_TRUE(dm2.manager().session_ids().empty());
  }
  // (b) Crash after the close record is durable but before the
  // in-memory close applied: recovery replays the close — a session
  // whose close the journal recorded is never resurrected — and the
  // stats retire exactly once.
  {
    TempDir dir;
    CrashInjector inj;
    DurabilityConfig cfg = durable_config(dir.path, &inj);
    cfg.snapshot_every_fixes = 0;
    {
      DurableSessionManager dm(kLink, serial_manager(), cfg);
      (void)dm.recover(shared_config_of());
      const SessionId id = dm.open_session(base_session(feed, kGroup));
      ASSERT_TRUE(dm.offer(id, 0, feed.captures[0].packets[0]).admitted());
      inj.arm(CrashPoint::kJournalAppendDone,
              inj.visits(CrashPoint::kJournalAppendDone) + 1, 3);
      EXPECT_THROW(dm.close_session(id), CrashInjected);
    }
    inj.disarm();
    DurabilityConfig cfg2 = durable_config(dir.path, nullptr);
    cfg2.snapshot_every_fixes = 0;
    DurableSessionManager dm2(kLink, serial_manager(), cfg2);
    (void)dm2.recover(shared_config_of());
    EXPECT_TRUE(dm2.manager().session_ids().empty());
    EXPECT_EQ(dm2.manager().global_stats().accepted, 1u);
  }
}

// --- crash + transport reconnect -------------------------------------------

TEST(DurableCrash, ServerCrashAndReconnectDeliverExactlyOnce) {
  constexpr std::size_t kTPackets = 4;
  constexpr std::size_t kTGroup = 2;  // -> 2 fixes
  const Feed feed(kTPackets);
  SessionConfig scfg = base_session(feed, kTGroup);
  const std::size_t naps = feed.captures.size();
  const std::size_t total = kTPackets * naps;
  const auto config_of = [&scfg](SessionId) { return scfg; };

  // Reference: the direct offer() path, no transport, no durability.
  FixesByRound golden;
  {
    SessionManager plain(kLink, serial_manager());
    const SessionId id = plain.open_session(scfg);
    for (std::size_t p = 0; p < kTPackets; ++p) {
      for (std::size_t a = 0; a < naps; ++a) {
        ASSERT_TRUE(plain.offer(id, a, feed.captures[a].packets[p]).admitted());
        for (const LocationFix& fix : plain.pump(id)) note_fix(golden, fix);
      }
    }
    ASSERT_EQ(golden.size(), kTPackets / kTGroup);
  }

  struct Scenario {
    CrashPoint point;
    std::uint64_t nth;
  };
  // Kill the server mid-delivery at each append boundary: before any
  // byte (unacked -> retransmitted), mid-record (torn tail), and after
  // the record is durable but before the sink returned (replayed from
  // the journal AND retransmitted — the dedup-or-double-apply case).
  const Scenario scenarios[] = {
      {CrashPoint::kJournalAppendStart, 6},
      {CrashPoint::kJournalAppendTorn, 9},
      {CrashPoint::kJournalAppendDone, 12},
  };

  LinkFaultModel model;
  model.delay_s = 0.01;
  model.jitter_s = 0.02;
  model.drop_prob = 0.05;
  model.duplicate_prob = 0.05;

  for (const std::uint64_t seed : sweep_seeds()) {
    for (const Scenario& s : scenarios) {
      SCOPED_TRACE(std::string("point=") + to_string(s.point) +
                   " nth=" + std::to_string(s.nth) +
                   " seed=" + std::to_string(seed));
      TempDir dir;
      CrashInjector inj;
      inj.arm(s.point, s.nth, seed);
      LinkSimulator link(model, seed);
      TransportConfig tcfg;
      tcfg.seed = seed ^ 0x9e3779b97f4a7c15ULL;
      tcfg.rto_initial_s = 0.1;
      tcfg.heartbeat_interval_s = 0.25;
      tcfg.liveness_timeout_s = 1.0;

      // Server incarnation 1. The sender (the capture client) and the
      // link live *outside* the crash scope — only the server dies.
      auto dm = std::make_unique<DurableSessionManager>(
          kLink, serial_manager(), durable_config(dir.path, &inj));
      (void)dm->recover(config_of);
      SessionId id = dm->open_session(scfg);
      TransportSender sender(link, tcfg);
      auto receiver = std::make_unique<TransportReceiver>(
          link, dm->make_sink(id, 1), tcfg);
      dm->bind_receiver(1, receiver.get());

      FixesByRound fixes;
      std::size_t next = 0;  // flat capture index, client-side state
      bool crashed = false;
      bool completed = false;
      const double dt = 0.005;
      for (double t = 0.0; t < 240.0; t += dt) {
        try {
          if (next < total) {
            CsiPacket packet =
                feed.captures[next % naps].packets[next / naps];
            if (sender.send(next % naps, packet, t).has_value()) ++next;
          }
          sender.tick(t);
          receiver->tick(t);
          for (const LocationFix& fix : dm->pump(id)) note_fix(fixes, fix);
          if (next >= total && sender.quiescent() && receiver->quiescent()) {
            completed = true;
            break;
          }
        } catch (const CrashInjected&) {
          crashed = true;
          // Server death: every in-memory object goes; the sender keeps
          // retransmitting into the void until the restart answers.
          receiver.reset();
          dm.reset();
          inj.disarm();
          dm = std::make_unique<DurableSessionManager>(
              kLink, serial_manager(), durable_config(dir.path, &inj));
          const RecoveryReport report = dm->recover(config_of);
          EXPECT_EQ(report.fix_mismatches, 0u);
          const auto ids = dm->manager().session_ids();
          id = ids.empty() ? dm->open_session(scfg) : ids.front();
          for (const auto& [sid, fix] : report.recovered_fixes) {
            note_fix(fixes, fix);
          }
          receiver = std::make_unique<TransportReceiver>(
              link, dm->make_sink(id, 1), tcfg);
          if (!dm->restore_receiver(1, *receiver)) {
            dm->bind_receiver(1, receiver.get());
          }
        }
      }
      ASSERT_TRUE(crashed) << "armed crash never fired";
      ASSERT_TRUE(completed) << "transport failed to quiesce after restart";

      // Byte-identical fixes: the crash changed *when* packets arrived,
      // never *what* the estimator computed — and exactly once: the
      // session accepted each frame a single time across crash +
      // reconnect, with both stats partitions exact.
      expect_same_fixes(fixes, golden);
      const SessionStats st = dm->manager().session_stats(id);
      EXPECT_EQ(st.accepted, total);
      EXPECT_EQ(st.offered, st.accepted + st.shed_packets);
      const TransportStats tx = sender.stats();
      EXPECT_EQ(tx.sent, total);
      EXPECT_EQ(tx.acked, total);
      EXPECT_EQ(tx.pending, 0u);
      EXPECT_EQ(tx.failed, 0u);
      const TransportStats rx = receiver->stats();
      EXPECT_EQ(rx.received, rx.delivered + rx.duplicates +
                                 rx.out_of_window + rx.corrupt + rx.buffered);
    }
  }
}

}  // namespace
}  // namespace spotfi
