// Tests for the Intel 5300 / csitool compatibility layer: bit-exact
// payload round trips, RSSI/AGC scaling per get_scaled_csi, permutation
// decoding, and framing robustness against corrupt logs.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "channel/csi_synthesis.hpp"
#include "common/angles.hpp"
#include "common/rng.hpp"
#include "csi/intel5300.hpp"
#include "music/estimators.hpp"

namespace spotfi {
namespace {

BfeeRecord random_record(Rng& rng, std::uint8_t n_rx = 3) {
  BfeeRecord rec;
  rec.timestamp_low = static_cast<std::uint32_t>(rng());
  rec.bfee_count = static_cast<std::uint16_t>(rng());
  rec.n_rx = n_rx;
  rec.n_tx = 1;
  rec.rssi_a = 60;
  rec.rssi_b = 58;
  rec.rssi_c = 0;  // absent
  rec.noise = -90;
  rec.agc = 30;
  rec.antenna_sel = 0x24;
  rec.csi = CMatrix(n_rx, 30);
  for (auto& v : rec.csi.flat()) {
    v = cplx(std::floor(rng.uniform(-128.0, 128.0)),
             std::floor(rng.uniform(-128.0, 128.0)));
  }
  return rec;
}

TEST(Csitool, PayloadRoundTripIsBitExact) {
  Rng rng(1);
  std::vector<BfeeRecord> records;
  for (int i = 0; i < 5; ++i) records.push_back(random_record(rng));

  std::stringstream ss;
  write_csitool_log(ss, records);
  const auto back = read_csitool_log(ss);
  ASSERT_EQ(back.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i].timestamp_low, records[i].timestamp_low);
    EXPECT_EQ(back[i].bfee_count, records[i].bfee_count);
    EXPECT_EQ(back[i].n_rx, records[i].n_rx);
    EXPECT_EQ(back[i].rssi_a, records[i].rssi_a);
    EXPECT_EQ(back[i].rssi_b, records[i].rssi_b);
    EXPECT_EQ(back[i].noise, records[i].noise);
    EXPECT_EQ(back[i].agc, records[i].agc);
    EXPECT_EQ(back[i].antenna_sel, records[i].antenna_sel);
    // Quantized CSI is integers in [-128, 127]: bit-exact round trip.
    EXPECT_EQ(back[i].csi, records[i].csi);
  }
}

TEST(Csitool, SingleAndDualAntennaRecords) {
  Rng rng(2);
  std::vector<BfeeRecord> records{random_record(rng, 1),
                                  random_record(rng, 2)};
  std::stringstream ss;
  write_csitool_log(ss, records);
  const auto back = read_csitool_log(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].csi.rows(), 1u);
  EXPECT_EQ(back[1].csi.rows(), 2u);
  EXPECT_EQ(back[0].csi, records[0].csi);
  EXPECT_EQ(back[1].csi, records[1].csi);
}

TEST(Csitool, TotalRssMatchesToolFormula) {
  BfeeRecord rec;
  rec.rssi_a = 60;
  rec.rssi_b = 0;
  rec.rssi_c = 0;
  rec.agc = 30;
  // dbm = db(dbinv(60)) - 44 - 30 = 60 - 74.
  EXPECT_NEAR(rec.total_rss_dbm(), -14.0, 1e-9);
  rec.rssi_b = 60;  // two equal antennas: +3 dB
  EXPECT_NEAR(rec.total_rss_dbm(), -11.0, 0.02);
}

TEST(Csitool, NoRssiThrows) {
  BfeeRecord rec;
  EXPECT_THROW((void)rec.total_rss_dbm(), ContractViolation);
}

TEST(Csitool, PermutationDecoding) {
  BfeeRecord rec;
  rec.antenna_sel = 0x24;  // 0b100100: perm = {0, 1, 2}
  const auto perm = rec.permutation();
  EXPECT_EQ(perm[0], 0u);
  EXPECT_EQ(perm[1], 1u);
  EXPECT_EQ(perm[2], 2u);
  rec.antenna_sel = 0b00'01'10;  // perm = {2, 1, 0}
  const auto swapped = rec.permutation();
  EXPECT_EQ(swapped[0], 2u);
  EXPECT_EQ(swapped[1], 1u);
  EXPECT_EQ(swapped[2], 0u);
}

TEST(Csitool, ScaledCsiPowerMatchesRssi) {
  // After scaling, CSI power per subcarrier should equal the SNR implied
  // by RSSI and noise (modulo the quantization-noise correction).
  Rng rng(3);
  BfeeRecord rec = random_record(rng);
  const CMatrix scaled = rec.scaled_csi();
  double pwr = 0.0;
  for (const auto& v : scaled.flat()) pwr += std::norm(v);
  pwr /= 30.0;  // per subcarrier
  const double rssi_pwr = std::pow(10.0, rec.total_rss_dbm() / 10.0);
  const double noise_pwr = std::pow(10.0, -90.0 / 10.0);
  // SNR-ish: pwr ~= rssi_pwr / (noise + quant); bound loosely above by
  // pure-thermal SNR.
  EXPECT_LE(pwr, rssi_pwr / noise_pwr * 1.001);
  EXPECT_GT(pwr, 0.0);
}

TEST(Csitool, ScaledCsiPreservesPhaseStructure) {
  Rng rng(4);
  const BfeeRecord rec = random_record(rng);
  const CMatrix scaled = rec.scaled_csi();
  for (std::size_t m = 0; m < rec.csi.rows(); ++m) {
    for (std::size_t n = 0; n < rec.csi.cols(); ++n) {
      if (std::abs(rec.csi(m, n)) == 0.0) continue;
      EXPECT_NEAR(std::arg(scaled(m, n)), std::arg(rec.csi(m, n)), 1e-12);
    }
  }
}

TEST(Csitool, MakeBfeeInverseOfScaledCsiUpToGain) {
  // Synthesize a physical CSI matrix, encode, decode, scale: the result
  // must match the original up to one complex gain (quantization noise
  // aside) — i.e. MUSIC sees the same thing.
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ImpairmentConfig imp;
  const CsiSynthesizer synth(link, imp);
  PathComponent p;
  p.aoa_rad = deg_to_rad(25.0);
  p.tof_s = 60e-9;
  p.gain_db = -55.0;
  const CMatrix truth =
      synth.ideal_csi(std::span<const PathComponent>(&p, 1));

  const BfeeRecord rec = make_bfee(truth, -50.0, 1234);
  std::stringstream ss;
  write_csitool_log(ss, std::span<const BfeeRecord>(&rec, 1));
  const auto back = read_csitool_log(ss);
  ASSERT_EQ(back.size(), 1u);
  const CMatrix scaled = back[0].scaled_csi();

  // Compare ratios: scaled(m,n) / truth(m,n) should be a constant.
  const cplx ref = scaled(0, 0) / truth(0, 0);
  for (std::size_t m = 0; m < truth.rows(); ++m) {
    for (std::size_t n = 0; n < truth.cols(); ++n) {
      const cplx ratio = scaled(m, n) / truth(m, n);
      EXPECT_LT(std::abs(ratio - ref), 0.03 * std::abs(ref))
          << "m=" << m << " n=" << n;
    }
  }
}

TEST(Csitool, MusicWorksOnDecodedRecords) {
  // End-to-end through the real log format: estimates from the decoded,
  // scaled CSI must match the synthesized path.
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ImpairmentConfig imp;
  const CsiSynthesizer synth(link, imp);
  PathComponent p;
  p.aoa_rad = deg_to_rad(-35.0);
  p.tof_s = 90e-9;
  p.gain_db = -50.0;
  p.is_direct = true;
  Rng rng(5);
  const CsiPacket packet =
      synth.synthesize(std::span<const PathComponent>(&p, 1), 0.0, rng);

  const BfeeRecord rec = make_bfee(packet.csi, packet.rssi_dbm);
  std::stringstream ss;
  write_csitool_log(ss, std::span<const BfeeRecord>(&rec, 1));
  const auto back = read_csitool_log(ss);
  const JointMusicEstimator estimator(link);
  const auto estimates = estimator.estimate(back[0].scaled_csi());
  ASSERT_FALSE(estimates.empty());
  EXPECT_NEAR(rad_to_deg(estimates[0].aoa_rad), -35.0, 1.5);
}

TEST(Csitool, SkipsForeignFrames) {
  Rng rng(6);
  const BfeeRecord rec = random_record(rng);
  std::stringstream ss;
  // A foreign frame (code 0xC1, 4 bytes) precedes the bfee frame.
  const std::uint8_t foreign[] = {0x00, 0x05, 0xC1, 1, 2, 3, 4};
  ss.write(reinterpret_cast<const char*>(foreign), sizeof(foreign));
  write_csitool_log(ss, std::span<const BfeeRecord>(&rec, 1));
  const auto back = read_csitool_log(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].csi, rec.csi);
}

TEST(Csitool, TruncatedFrameThrows) {
  Rng rng(7);
  const BfeeRecord rec = random_record(rng);
  std::stringstream ss;
  write_csitool_log(ss, std::span<const BfeeRecord>(&rec, 1));
  std::string blob = ss.str();
  blob.resize(blob.size() - 11);
  std::stringstream cut(blob);
  EXPECT_THROW(read_csitool_log(cut), ParseError);
}

TEST(Csitool, CorruptLengthThrows) {
  Rng rng(8);
  const BfeeRecord rec = random_record(rng);
  std::stringstream ss;
  write_csitool_log(ss, std::span<const BfeeRecord>(&rec, 1));
  std::string blob = ss.str();
  blob[19] = static_cast<char>(0x7F);  // clobber the payload length field
  std::stringstream bad(blob);
  EXPECT_THROW(read_csitool_log(bad), ParseError);
}

TEST(Csitool, ZeroLengthFrameThrows) {
  std::stringstream ss;
  const std::uint8_t hdr[] = {0x00, 0x00};
  ss.write(reinterpret_cast<const char*>(hdr), 2);
  EXPECT_THROW(read_csitool_log(ss), ParseError);
}

TEST(Csitool, MissingFileThrows) {
  EXPECT_THROW(read_csitool_log(std::string("/nonexistent/log.dat")),
               ParseError);
}

TEST(Csitool, MakeBfeeValidatesInput) {
  EXPECT_THROW(make_bfee(CMatrix(3, 20), -50.0), ContractViolation);
  EXPECT_THROW(make_bfee(CMatrix(3, 30), -50.0), ContractViolation);  // zero
}

}  // namespace
}  // namespace spotfi
