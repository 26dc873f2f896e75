#include "testbed/experiment.hpp"

#include <algorithm>

namespace spotfi {
namespace {

/// Spacing between the packets of one burst [s].
constexpr double kPacketIntervalS = 0.1;

}  // namespace

ExperimentRunner::ExperimentRunner(LinkConfig link, Deployment deployment,
                                   ExperimentConfig config)
    : link_(link),
      deployment_(std::move(deployment)),
      config_(std::move(config)) {
  SPOTFI_EXPECTS(deployment_.aps.size() >= 2, "deployment needs >= 2 APs");
  SPOTFI_EXPECTS(config_.packets_per_group >= 1, "need >= 1 packet");
  for (std::size_t idx : config_.ap_indices) {
    SPOTFI_EXPECTS(idx < deployment_.aps.size(), "AP index out of range");
  }
  config_.server.localizer.area_min = deployment_.area_min;
  config_.server.localizer.area_max = deployment_.area_max;
  multipath_.carrier_hz = link_.carrier_hz;
}

std::vector<ArrayPose> ExperimentRunner::used_aps() const {
  if (config_.ap_indices.empty()) return deployment_.aps;
  std::vector<ArrayPose> aps;
  aps.reserve(config_.ap_indices.size());
  for (std::size_t idx : config_.ap_indices) {
    aps.push_back(deployment_.aps[idx]);
  }
  return aps;
}

std::vector<ApGroundTruth> ExperimentRunner::ground_truth(Vec2 target) const {
  std::vector<ApGroundTruth> truth;
  for (const auto& pose : used_aps()) {
    ApGroundTruth t;
    t.direct_aoa_rad = pose.apparent_aoa_of(target);
    t.line_of_sight = deployment_.plan.line_of_sight(pose.position, target);
    const auto paths = enumerate_paths(deployment_.plan,
                                       deployment_.scatterers, pose, target,
                                       multipath_);
    t.direct_path_present =
        std::any_of(paths.begin(), paths.end(),
                    [](const PathComponent& p) { return p.is_direct; });
    truth.push_back(t);
  }
  return truth;
}

std::vector<ApCapture> ExperimentRunner::simulate_captures(Vec2 target,
                                                           Rng& rng) const {
  const CsiSynthesizer analytic(link_, config_.impairments);
  std::optional<PhyCsiSynthesizer> waveform;
  if (config_.use_phy_waveform) {
    PhyConfig phy;
    phy.link = link_;
    waveform.emplace(phy, config_.impairments);
  }
  std::vector<ApCapture> captures;
  for (const auto& pose : used_aps()) {
    const auto paths = enumerate_paths(deployment_.plan,
                                       deployment_.scatterers, pose, target,
                                       multipath_);
    ApCapture capture;
    capture.pose = pose;
    Rng ap_rng = rng.fork();
    capture.packets =
        waveform ? waveform->synthesize_burst(paths,
                                              config_.packets_per_group,
                                              kPacketIntervalS,
                                              ap_rng)
                 : analytic.synthesize_burst(paths,
                                             config_.packets_per_group,
                                             kPacketIntervalS,
                                             ap_rng);
    captures.push_back(std::move(capture));
  }
  return captures;
}

TargetRun ExperimentRunner::run_target(Vec2 target, Rng& rng) const {
  TargetRun run;
  run.truth = target;
  run.captures = simulate_captures(target, rng);
  run.ap_truth = ground_truth(target);

  const SpotFiServer server(link_, config_.server);
  auto round = server.try_localize(run.captures, rng);
  if (!round) throw NumericalError(round.error().reason);
  if (round->degraded) {
    std::string reason = "round left the primary estimator";
    for (const std::string& note : round->notes) reason += "; " + note;
    throw NumericalError(reason);
  }
  run.round = std::move(*round);
  run.error_m = distance(run.round.location.position, target);
  return run;
}

Vec2 ExperimentRunner::arraytrack_baseline(
    std::span<const ApCapture> captures, const MusicAoaConfig& cfg) const {
  const MusicAoaEstimator estimator(link_, cfg);
  std::vector<ApSpectrum> spectra;
  spectra.reserve(captures.size());
  for (const auto& capture : captures) {
    SPOTFI_EXPECTS(!capture.packets.empty(), "empty capture");
    ApSpectrum ap;
    ap.pose = capture.pose;
    ap.spectrum = estimator.spectrum(capture.packets.front().csi);
    for (std::size_t p = 1; p < capture.packets.size(); ++p) {
      const AoaSpectrum s = estimator.spectrum(capture.packets[p].csi);
      for (std::size_t i = 0; i < s.values.size(); ++i) {
        ap.spectrum.values[i] += s.values[i];
      }
    }
    const double inv = 1.0 / static_cast<double>(capture.packets.size());
    for (auto& v : ap.spectrum.values) v *= inv;
    spectra.push_back(std::move(ap));
  }
  ArrayTrackConfig at_cfg;
  at_cfg.area_min = deployment_.area_min;
  at_cfg.area_max = deployment_.area_max;
  return arraytrack_locate(spectra, at_cfg);
}

std::vector<double> error_series(std::span<const TargetRun> runs) {
  std::vector<double> errors;
  errors.reserve(runs.size());
  for (const auto& run : runs) errors.push_back(run.error_m);
  return errors;
}

}  // namespace spotfi
