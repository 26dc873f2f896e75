// Unit tests of the benchmark's measurement helpers (src/harness.hpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

// -- tail percentile ------------------------------------------------------------

TEST(TailPercentile, CountsOrderStatisticsPastTheInterpolationRank) {
  // 11 samples: p90 sits exactly on index 9, so only index 10 is beyond.
  EXPECT_EQ(samples_beyond(11, 90.0), 1u);
  // 1000 samples: p99 sits at rank 989.01, so indices 990..999 are beyond.
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.5), 5u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(TailPercentile, PicksTheHighestPercentileWithTenSamplesBeyond) {
  const TailChoice big = choose_tail(10000);
  EXPECT_DOUBLE_EQ(big.percentile, 99.9);
  EXPECT_EQ(big.beyond, 10u);

  const TailChoice thousand = choose_tail(1000);
  EXPECT_DOUBLE_EQ(thousand.percentile, 99.0);
  EXPECT_EQ(thousand.beyond, 10u);

  // 40 fixes (a short office run): p76 sits at rank 29.64 and leaves
  // 10 beyond; p77 (rank 30.03) leaves only 9.
  const TailChoice small = choose_tail(40);
  EXPECT_DOUBLE_EQ(small.percentile, 76.0);
  EXPECT_EQ(small.beyond, 10u);
  EXPECT_EQ(samples_beyond(40, 77.0), 9u);

  // office_music's 48 fixes: p80 (rank 37.6) leaves 10, p81 leaves 9.
  EXPECT_DOUBLE_EQ(choose_tail(48).percentile, 80.0);
  EXPECT_EQ(samples_beyond(48, 81.0), 9u);
}

TEST(TailPercentile, FallsBackToTheMedianForTinySamples) {
  const TailChoice tiny = choose_tail(12);
  EXPECT_DOUBLE_EQ(tiny.percentile, 50.0);
  EXPECT_LT(tiny.beyond, 10u);
}

// -- self time ----------------------------------------------------------------------

Span span(SpanName name, int parent, double start, double end, double cpu = -1.0) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_s = start;
  s.end_s = end;
  s.cpu_s = cpu;
  return s;
}

TEST(SelfTime, CpuEdgesSubtractSummedChildrenEvenWhenTheyOverlap) {
  // A pump on 2 lanes: 10 s wall, 18 s CPU; two stage children ran
  // concurrently (they overlap each other) for 8 s each.
  const std::vector<Span> spans = {
      span(SpanName::kPump, -1, 0.0, 10.0, 18.0),
      span(SpanName::kSubspace, 0, 0.0, 8.0),
      span(SpanName::kSpectrum, 0, 1.0, 9.0),
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 2.0);
  EXPECT_DOUBLE_EQ(self[1], 8.0);
  EXPECT_DOUBLE_EQ(self[2], 8.0);
}

TEST(SelfTime, WallSpansSubtractTheirOwnChildrenOnly) {
  // A receiver tick that made two sink calls, one after the other.
  const std::vector<Span> spans = {
      span(SpanName::kReceiverTick, -1, 0.0, 10.0),
      span(SpanName::kSink, 0, 1.0, 4.0),
      span(SpanName::kSink, 0, 5.0, 7.0),
      span(SpanName::kOffer, 1, 1.5, 2.0),  // grandchild: not the tick's
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 5.0);
  EXPECT_DOUBLE_EQ(self[1], 2.5);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 0.5);
}

TEST(Tracer, NestsSpansAndLaysSynthesizedChildrenEndToEnd) {
  Tracer tracer(true);
  const int outer = tracer.open(SpanName::kPump, 3, 7, /*with_cpu=*/true);
  const int inner = tracer.open(SpanName::kOffer, 3, 7);
  tracer.close(inner);
  tracer.close(outer);
  tracer.child(outer, SpanName::kSubspace, 0.25, 3, 7);
  tracer.child(outer, SpanName::kSpectrum, 0.5, 3, 7);

  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_GE(spans[0].cpu_s, 0.0);
  EXPECT_LT(spans[1].cpu_s, 0.0);
  EXPECT_DOUBLE_EQ(spans[2].start_s, spans[0].start_s);
  EXPECT_DOUBLE_EQ(spans[3].start_s, spans[2].end_s);
  EXPECT_DOUBLE_EQ(spans[3].end_s - spans[3].start_s, 0.5);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  {
    const ScopedSpan s(tracer, SpanName::kPump);
    EXPECT_EQ(s.index(), -1);
    tracer.child(s.index(), SpanName::kSubspace, 1.0, 0, 0);
  }
  EXPECT_TRUE(tracer.spans().empty());
}

// -- digest -------------------------------------------------------------------------

TEST(Digest, IsFnv1aAndStableAcrossInstances) {
  EXPECT_EQ(Digest{}.hex(), "cbf29ce484222325");
  Digest a;
  a.add_bytes("a", 1);
  EXPECT_EQ(a.hex(), "af63dc4c8601ec8c");

  const auto fix_stream = [] {
    Digest d;
    for (std::uint64_t round = 1; round <= 3; ++round) {
      d.add(std::uint64_t{4});
      d.add(round);
      d.add(1.25 * static_cast<double>(round));
      d.add(-0.5);
    }
    return d;
  };
  EXPECT_EQ(fix_stream().value(), fix_stream().value());
  EXPECT_EQ(fix_stream().hex().size(), 16u);
}

TEST(Digest, SeesOrderAndEveryBit) {
  Digest ab;
  ab.add(1.0);
  ab.add(2.0);
  Digest ba;
  ba.add(2.0);
  ba.add(1.0);
  EXPECT_NE(ab.value(), ba.value());

  Digest pos;
  pos.add(0.0);
  Digest neg;
  neg.add(-0.0);
  EXPECT_NE(pos.value(), neg.value());
}

// -- round accounting -----------------------------------------------------------

TEST(RoundLedger, LostAndMismatchedRoundsBothFail) {
  // 10 rounds sent; one emitted no fix (lost), and one emitted a fix
  // that recovery could not reproduce from the journal.
  const RoundLedger ledger{10, 9, 1};
  EXPECT_EQ(ledger.failed(), 2u);
  EXPECT_DOUBLE_EQ(ledger.fail_frac(), 0.2);
}

TEST(RoundLedger, CleanRunHasNoFailures) {
  const RoundLedger ledger{32, 32, 0};
  EXPECT_EQ(ledger.failed(), 0u);
  EXPECT_DOUBLE_EQ(ledger.fail_frac(), 0.0);
  EXPECT_DOUBLE_EQ((RoundLedger{}).fail_frac(), 0.0);
}

}  // namespace
}  // namespace perfbench
