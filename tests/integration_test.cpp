// Cross-module integration tests: the full SpotFi pipeline driven
// end-to-end through realistic paths — simulator -> trace formats ->
// sanitization -> super-resolution -> clustering -> localization — plus
// system-level properties (determinism, the value of Algorithm 1, both
// front ends, tracking over a moving target).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/angles.hpp"
#include "core/tracker.hpp"
#include "csi/intel5300.hpp"
#include "csi/sanitize.hpp"
#include "csi/trace.hpp"
#include "testbed/experiment.hpp"

namespace spotfi {
namespace {

const LinkConfig kLink = LinkConfig::intel5300_40mhz();

ExperimentRunner office_runner(std::size_t packets = 12) {
  ExperimentConfig config;
  config.packets_per_group = packets;
  return {kLink, office_deployment(), config};
}

TEST(Integration, OfficeTargetsLocalizeWithinTwoMetersMedian) {
  const auto runner = office_runner();
  Rng rng(1);
  std::vector<double> errors;
  for (const Vec2 target : {Vec2{6.0, 3.5}, Vec2{8.0, 5.5}, Vec2{10.0, 5.5},
                            Vec2{4.0, 7.5}, Vec2{12.0, 3.5}}) {
    errors.push_back(runner.run_target(target, rng).error_m);
  }
  std::sort(errors.begin(), errors.end());
  EXPECT_LT(errors[errors.size() / 2], 2.0);  // median of 5 targets
}

TEST(Integration, WholePipelineIsDeterministic) {
  const auto runner = office_runner(6);
  Rng r1(9), r2(9);
  const TargetRun a = runner.run_target({10.0, 5.5}, r1);
  const TargetRun b = runner.run_target({10.0, 5.5}, r2);
  EXPECT_EQ(a.round.location.position, b.round.location.position);
  ASSERT_EQ(a.round.ap_results.size(), b.round.ap_results.size());
  for (std::size_t i = 0; i < a.round.ap_results.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.round.ap_results[i].observation.direct_aoa_rad,
                     b.round.ap_results[i].observation.direct_aoa_rad);
  }
}

TEST(Integration, PipelineThroughSpotfiTraceFormat) {
  // Write captures to the library's trace format, read back, localize:
  // quantization must not break decimeter-scale localization.
  const auto runner = office_runner();
  Rng rng(2);
  const Vec2 target{8.0, 5.5};
  const auto captures = runner.simulate_captures(target, rng);

  std::vector<ApCapture> replayed;
  for (const auto& capture : captures) {
    std::stringstream ss;
    write_trace(ss, kLink, capture.packets);
    const Trace trace = read_trace(ss);
    ApCapture rc;
    rc.pose = capture.pose;
    rc.packets = trace.packets;
    replayed.push_back(std::move(rc));
  }
  ServerConfig config;
  config.localizer.area_min = runner.deployment().area_min;
  config.localizer.area_max = runner.deployment().area_max;
  const SpotFiServer server(kLink, config);
  const auto round = server.try_localize(replayed, rng);
  ASSERT_TRUE(round.has_value()) << round.error().reason;
  EXPECT_LT(distance(round->location.position, target), 2.0);
}

TEST(Integration, PipelineThroughCsitoolFormat) {
  // Same through the genuine csitool framing, including its RSSI
  // encoding (rssi slot -> dBm via -44 - agc).
  const auto runner = office_runner();
  Rng rng(3);
  const Vec2 target{6.0, 5.5};
  const auto captures = runner.simulate_captures(target, rng);

  std::vector<ApCapture> replayed;
  for (const auto& capture : captures) {
    std::vector<BfeeRecord> records;
    for (const auto& packet : capture.packets) {
      records.push_back(make_bfee(packet.csi, packet.rssi_dbm,
                                  static_cast<std::uint32_t>(
                                      packet.timestamp_s * 1e6)));
    }
    std::stringstream ss;
    write_csitool_log(ss, records);
    const auto decoded = read_csitool_log(ss);

    ApCapture rc;
    rc.pose = capture.pose;
    for (const auto& rec : decoded) {
      CsiPacket packet;
      packet.csi = rec.scaled_csi();
      packet.rssi_dbm = rec.total_rss_dbm();
      packet.timestamp_s = static_cast<double>(rec.timestamp_low) * 1e-6;
      rc.packets.push_back(std::move(packet));
    }
    replayed.push_back(std::move(rc));
  }
  ServerConfig config;
  config.localizer.area_min = runner.deployment().area_min;
  config.localizer.area_max = runner.deployment().area_max;
  const SpotFiServer server(kLink, config);
  const auto round = server.try_localize(replayed, rng);
  ASSERT_TRUE(round.has_value()) << round.error().reason;
  EXPECT_LT(distance(round->location.position, target), 2.0);
}

TEST(Integration, SanitizationImprovesDirectPathClustering) {
  // Algorithm 1's ablation at the system level: without it, per-packet
  // STO scatter inflates the ToF variance of every cluster.
  const auto runner = office_runner(20);
  Rng rng(4);
  const auto captures = runner.simulate_captures({6.0, 3.5}, rng);

  ApProcessorConfig with, without;
  without.sanitize = false;
  const ApProcessor p_with(kLink, captures[0].pose, with);
  const ApProcessor p_without(kLink, captures[0].pose, without);
  const ApOutcome o_with = p_with.process_robust(captures[0].packets, rng);
  const ApOutcome o_without =
      p_without.process_robust(captures[0].packets, rng);
  ASSERT_EQ(o_with.stage, ApStage::kPrimary) << o_with.note;
  ASSERT_EQ(o_without.stage, ApStage::kPrimary) << o_without.note;
  const ApResult& r_with = o_with.result;
  const ApResult& r_without = o_without.result;

  // The tightest *populated* cluster (the direct path) should be far
  // tighter in ToF with sanitization than without; singleton clusters
  // have zero variance by construction and are excluded.
  auto min_sigma_tof = [](const ApResult& r) {
    double best = 1e9;
    for (const auto& c : r.clusters) {
      if (c.count >= 5) best = std::min(best, c.sigma_tof);
    }
    return best;
  };
  EXPECT_LT(min_sigma_tof(r_with), 0.5 * min_sigma_tof(r_without));
}

TEST(Integration, EspritFrontEndLocalizesToo) {
  ExperimentConfig config;
  config.packets_per_group = 12;
  config.server.ap.front_end = FrontEnd::kEsprit;
  const ExperimentRunner runner(kLink, office_deployment(), config);
  Rng rng(5);
  const TargetRun run = runner.run_target({8.0, 5.5}, rng);
  EXPECT_LT(run.error_m, 2.5);
}

TEST(Integration, TrackerFollowsMovingTarget) {
  const auto runner = office_runner(10);
  TrackerConfig cfg;
  cfg.acceleration_sigma = 1.5;
  LocationTracker tracker(cfg);
  Rng rng(7);
  double worst_tracked = 0.0;
  for (int i = 0; i < 8; ++i) {
    const Vec2 truth{3.0 + 1.2 * i, 4.0};
    const TargetRun run = runner.run_target(truth, rng);
    const Vec2 tracked =
        tracker.update(run.round.location.position, 1.5 * i);
    worst_tracked = std::max(worst_tracked, distance(tracked, truth));
  }
  EXPECT_LT(worst_tracked, 4.0);
}

TEST(Integration, WaveformModeLocalizes) {
  // Full experiment with CSI produced by the OFDM waveform chain instead
  // of the analytic model.
  ExperimentConfig config;
  config.packets_per_group = 8;
  config.use_phy_waveform = true;
  const ExperimentRunner runner(kLink, office_deployment(), config);
  Rng rng(12);
  std::vector<double> errors;
  for (const Vec2 target : {Vec2{6.0, 3.5}, Vec2{8.0, 5.5}, Vec2{10.0, 5.5}}) {
    errors.push_back(runner.run_target(target, rng).error_m);
  }
  std::sort(errors.begin(), errors.end());
  EXPECT_LT(errors[1], 2.5);  // median of three targets
}

TEST(Integration, WaveformStoSurvivesSanitization) {
  // The waveform source's per-packet timing jitter must behave like a
  // real STO: Algorithm 1 removes it, leaving consistent sanitized CSI.
  PhyConfig phy;
  ImpairmentConfig imp;
  imp.sto_base_s = 60e-9;
  imp.sto_jitter_s = 20e-9;
  imp.random_common_phase = false;
  imp.quantize_8bit = false;
  imp.max_snr_db = 45.0;
  imp.rssi_shadowing_db = 0.0;
  imp.phase_calibration_sigma_rad = 0.0;
  imp.gain_calibration_sigma_db = 0.0;
  const PhyCsiSynthesizer source(phy, imp);

  PathComponent p;
  p.aoa_rad = deg_to_rad(15.0);
  p.tof_s = 40e-9;
  p.gain_db = -50.0;
  p.is_direct = true;
  Rng rng(13);
  const auto burst = source.synthesize_burst(
      std::span<const PathComponent>(&p, 1), 6, 0.1, rng);

  const LinkConfig link = source.reported_link();
  CMatrix first;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    CMatrix clean = sanitize_tof(burst[i].csi, link).csi;
    // Remove the arbitrary common phase before comparing packets.
    const cplx rot = std::conj(clean(0, 0)) / std::abs(clean(0, 0));
    for (auto& v : clean.flat()) v *= rot;
    if (i == 0) {
      first = clean;
    } else {
      EXPECT_LT((clean - first).max_abs(), 0.15 * first.max_abs())
          << "packet " << i;
    }
  }
}

TEST(Integration, HigherSnrNeverHurtsMuch) {
  // Property: turning off every impairment must not make localization
  // worse than the fully impaired run (sanity of the noise model).
  ExperimentConfig clean_cfg;
  clean_cfg.packets_per_group = 10;
  clean_cfg.impairments.quantize_8bit = false;
  clean_cfg.impairments.rssi_shadowing_db = 0.0;
  clean_cfg.impairments.max_snr_db = 60.0;
  clean_cfg.impairments.phase_calibration_sigma_rad = 0.0;
  clean_cfg.impairments.gain_calibration_sigma_db = 0.0;
  const ExperimentRunner clean(kLink, office_deployment(), clean_cfg);
  const ExperimentRunner impaired(kLink, office_deployment(), {});

  double clean_total = 0.0, impaired_total = 0.0;
  for (const Vec2 target : {Vec2{6.0, 3.5}, Vec2{10.0, 5.5}, Vec2{4.0, 7.5}}) {
    Rng r1(8), r2(8);
    clean_total += clean.run_target(target, r1).error_m;
    impaired_total += impaired.run_target(target, r2).error_m;
  }
  EXPECT_LT(clean_total, impaired_total + 1.0);
}

}  // namespace
}  // namespace spotfi
