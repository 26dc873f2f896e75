// Unit tests for the common substrate: RNG determinism, statistics,
// angle helpers, link configuration, and contract checking.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <set>
#include <span>

#include "common/angles.hpp"
#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/workspace.hpp"

namespace spotfi {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
  EXPECT_NEAR(std::sqrt(s.population_variance()), 3.0, 0.05);
}

TEST(Rng, UniformIndexCoversRangeWithoutOverflow) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto k = rng.uniform_index(5);
    EXPECT_LT(k, 5u);
    seen.insert(k);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), ContractViolation);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(99);
  Rng a = parent.fork();
  Rng b = parent.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.population_variance(), 1.25);
  EXPECT_NEAR(s.sample_variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_EQ(s.count(), 4u);
}

TEST(RunningStats, EmptySampleThrows) {
  RunningStats s;
  EXPECT_THROW((void)s.mean(), ContractViolation);
  EXPECT_THROW((void)s.population_variance(), ContractViolation);
  EXPECT_THROW((void)s.min(), ContractViolation);
}

TEST(Percentile, MedianOfOddAndEvenSamples) {
  const std::vector<double> odd{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(median(odd), 2.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Percentile, EndpointsAndInterpolation) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile(v, 80.0), 42.0);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(v, 37.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 7.0);
}

TEST(Percentile, RejectsBadArguments) {
  const std::vector<double> v{1.0};
  const std::vector<double> empty;
  EXPECT_THROW((void)percentile(empty, 50.0), ContractViolation);
  EXPECT_THROW((void)percentile(v, -1.0), ContractViolation);
  EXPECT_THROW((void)percentile(v, 101.0), ContractViolation);
}

TEST(Cdf, FullCdfIsMonotone) {
  const std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  const auto cdf = empirical_cdf(v);
  ASSERT_EQ(cdf.size(), v.size());
  EXPECT_DOUBLE_EQ(cdf.front().value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 5.0);
  EXPECT_DOUBLE_EQ(cdf.back().probability, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].probability, cdf[i - 1].probability);
  }
}

TEST(Cdf, DownsampledRejectsTooFewPoints) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_THROW(empirical_cdf(v, 1), ContractViolation);
}

TEST(Cdf, DownsampledCdfHasRequestedPoints) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(static_cast<double>(i));
  const auto cdf = empirical_cdf(v, 11);
  ASSERT_EQ(cdf.size(), 11u);
  EXPECT_DOUBLE_EQ(cdf.front().probability, 0.0);
  EXPECT_DOUBLE_EQ(cdf.back().probability, 1.0);
  EXPECT_DOUBLE_EQ(cdf[5].value, 49.5);
}

TEST(Angles, DegRadRoundTrip) {
  EXPECT_DOUBLE_EQ(deg_to_rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(rad_to_deg(kPi / 2.0), 90.0);
  EXPECT_NEAR(rad_to_deg(deg_to_rad(33.25)), 33.25, 1e-12);
}

TEST(Angles, WrapPi) {
  EXPECT_NEAR(wrap_pi(3.0 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_pi(-3.0 * kPi), kPi, 1e-12);
  EXPECT_NEAR(wrap_pi(0.1), 0.1, 1e-12);
  EXPECT_NEAR(wrap_pi(2.0 * kPi + 0.1), 0.1, 1e-12);
}

TEST(Angles, WrapTwoPi) {
  EXPECT_NEAR(wrap_two_pi(-0.1), 2.0 * kPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_two_pi(2.0 * kPi + 0.2), 0.2, 1e-12);
}

TEST(Angles, AngularDistance) {
  EXPECT_NEAR(angular_distance(0.1, -0.1), 0.2, 1e-12);
  EXPECT_NEAR(angular_distance(kPi - 0.05, -kPi + 0.05), 0.1, 1e-12);
  EXPECT_NEAR(angular_distance(1.0, 1.0), 0.0, 1e-12);
}

TEST(LinkConfig, Intel5300GridIsCenteredAndEquispaced) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  EXPECT_EQ(link.n_subcarriers, 30u);
  EXPECT_EQ(link.n_antennas, 3u);
  const double lo = link.subcarrier_hz(0);
  const double hi = link.subcarrier_hz(29);
  EXPECT_NEAR((lo + hi) / 2.0, link.carrier_hz, 1.0);
  EXPECT_NEAR(hi - lo, link.reported_span_hz(), 1.0);
  EXPECT_NEAR(link.subcarrier_hz(1) - link.subcarrier_hz(0),
              link.subcarrier_spacing_hz, 1e-6);
}

TEST(LinkConfig, HalfWavelengthSpacing) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  EXPECT_NEAR(link.antenna_spacing_m, link.wavelength() / 2.0, 1e-12);
}

TEST(LinkConfig, TwentyMhzVariantHalvesSpacing) {
  const LinkConfig l40 = LinkConfig::intel5300_40mhz();
  const LinkConfig l20 = LinkConfig::intel5300_20mhz();
  EXPECT_NEAR(l20.subcarrier_spacing_hz, l40.subcarrier_spacing_hz / 2.0,
              1e-6);
  EXPECT_EQ(l20.n_subcarriers, l40.n_subcarriers);
  EXPECT_NEAR(l20.reported_span_hz(), l40.reported_span_hz() / 2.0, 1e-3);
}

TEST(LinkConfig, SubcarrierIndexOutOfRangeThrows) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  EXPECT_THROW((void)link.subcarrier_hz(30), ContractViolation);
}

TEST(Contracts, ExpectsThrowsWithContext) {
  try {
    SPOTFI_EXPECTS(false, "the message");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("common_test"), std::string::npos);
  }
}

TEST(Workspace, CheckoutsAreZeroFilledAndAligned) {
  Workspace ws;
  Workspace::Frame frame(ws);
  const auto d = ws.take<double>(7);
  ASSERT_EQ(d.size(), 7u);
  for (const double v : d) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % Workspace::kAlign,
            0u);
  const auto c = ws.take<std::complex<double>>(3);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % Workspace::kAlign,
            0u);
  for (const auto& v : c) EXPECT_EQ(v, std::complex<double>{});
}

TEST(Workspace, FrameRewindReleasesCheckouts) {
  Workspace ws;
  {
    Workspace::Frame frame(ws);
    (void)ws.take<double>(100);
    EXPECT_EQ(ws.stats().used_bytes, 800u);
  }
  EXPECT_EQ(ws.stats().used_bytes, 0u);
  EXPECT_EQ(ws.stats().high_water_bytes, 800u);
  // A frame that dirties memory then rewinds must not leak values into
  // the next checkout at the same address.
  {
    Workspace::Frame frame(ws);
    auto d = ws.take<double>(10);
    for (auto& v : d) v = 42.0;
  }
  {
    Workspace::Frame frame(ws);
    const auto d = ws.take<double>(10);
    for (const double v : d) EXPECT_EQ(v, 0.0);
  }
}

TEST(Workspace, SpansStayValidAcrossGrowth) {
  Workspace ws;
  Workspace::Frame frame(ws);
  auto first = ws.take<double>(8);
  first[0] = 1.25;
  const double* addr = first.data();
  // Force several growth blocks while `first` is outstanding.
  for (int i = 0; i < 8; ++i) {
    (void)ws.take<std::byte>(Workspace::kDefaultBlockBytes);
  }
  EXPECT_EQ(first.data(), addr);
  EXPECT_EQ(first[0], 1.25);
  EXPECT_GE(ws.stats().block_allocations, 2u);
}

TEST(Workspace, ResetCoalescesIntoOneBlock) {
  Workspace ws;
  {
    Workspace::Frame frame(ws);
    for (int i = 0; i < 4; ++i) {
      (void)ws.take<std::byte>(Workspace::kDefaultBlockBytes);
    }
  }
  const WorkspaceStats before = ws.stats();
  ws.reset();
  const WorkspaceStats after = ws.stats();
  EXPECT_EQ(after.capacity_bytes, before.capacity_bytes);
  EXPECT_EQ(after.used_bytes, 0u);
  EXPECT_EQ(after.block_allocations, before.block_allocations + 1);
  // A warmed arena serves the same workload without further heap growth.
  {
    Workspace::Frame frame(ws);
    for (int i = 0; i < 4; ++i) {
      (void)ws.take<std::byte>(Workspace::kDefaultBlockBytes);
    }
  }
  EXPECT_EQ(ws.stats().block_allocations, after.block_allocations);
}

TEST(Workspace, NestedFramePeaksFoldIntoParent) {
  Workspace ws;
  Workspace::Frame outer(ws);
  (void)ws.take<double>(2);  // 16 bytes
  {
    Workspace::Frame inner(ws);
    (void)ws.take<double>(10);  // 80 bytes scratch
    EXPECT_EQ(inner.peak_bytes(), 80u);
  }
  // Parent peak covers its own 16 bytes plus the inner frame's 80, even
  // though the inner scratch has been rewound.
  EXPECT_EQ(outer.peak_bytes(), 96u);
  EXPECT_EQ(ws.stats().used_bytes, 16u);
}

TEST(Workspace, CommitKeepsBytesAlivePastFrame) {
  Workspace ws;
  Workspace::Frame outer(ws);
  std::span<double> kept;
  {
    Workspace::Frame inner(ws);
    kept = ws.take<double>(4);
    kept[0] = 3.5;
    inner.commit();
  }
  (void)ws.take<double>(4);  // must not overlap the committed span
  EXPECT_EQ(kept[0], 3.5);
  EXPECT_EQ(ws.stats().used_bytes, 64u);
}

TEST(Workspace, ResetWithOpenFrameThrows) {
  Workspace ws;
  Workspace::Frame frame(ws);
  (void)ws.take<double>(1);
  EXPECT_THROW(ws.reset(), ContractViolation);
}

TEST(Workspace, ThreadWorkspaceIsStablePerThread) {
  Workspace& a = thread_workspace();
  Workspace& b = thread_workspace();
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace spotfi
