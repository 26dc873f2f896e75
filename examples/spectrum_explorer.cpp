// Spectrum explorer: visualize what SpotFi's super-resolution sees.
//
// Synthesizes a packet burst for one (target, AP) link in the office
// testbed, prints the ground-truth multipath, renders the joint
// (AoA, ToF) MUSIC pseudospectrum as an ASCII heat map, and prints the
// cluster table with Eq. 8 likelihoods so you can watch the direct-path
// selection at work.
//
//   ./spectrum_explorer [target_x target_y] [ap_index] [seed]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/angles.hpp"
#include "core/ap_processor.hpp"
#include "csi/sanitize.hpp"
#include "testbed/experiment.hpp"

int main(int argc, char** argv) {
  using namespace spotfi;

  Vec2 target{6.0, 3.5};
  std::size_t ap_index = 0;
  std::uint64_t seed = 1;
  if (argc >= 3) {
    target.x = std::atof(argv[1]);
    target.y = std::atof(argv[2]);
  }
  if (argc >= 4) ap_index = static_cast<std::size_t>(std::atoi(argv[3]));
  if (argc >= 5) seed = static_cast<std::uint64_t>(std::atoll(argv[4]));

  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ExperimentConfig config;
  config.packets_per_group = 15;
  const ExperimentRunner runner(link, office_deployment(), config);
  const auto& deployment = runner.deployment();
  if (ap_index >= deployment.aps.size()) {
    std::fprintf(stderr, "AP index out of range (%zu APs)\n",
                 deployment.aps.size());
    return 1;
  }
  const ArrayPose pose = deployment.aps[ap_index];

  // Ground truth multipath for this link.
  MultipathConfig mp_cfg;
  mp_cfg.carrier_hz = link.carrier_hz;
  const auto paths = enumerate_paths(deployment.plan, deployment.scatterers,
                                     pose, target, mp_cfg);
  std::printf("link: target (%.1f, %.1f) -> AP %zu at (%.1f, %.1f)\n\n",
              target.x, target.y, ap_index, pose.position.x,
              pose.position.y);
  std::printf("ground-truth multipath (strongest first):\n");
  std::printf("  %-8s %-10s %-10s %-8s\n", "kind", "AoA [deg]", "ToF [ns]",
              "gain[dB]");
  for (const auto& p : paths) {
    std::printf("  %-8s %10.1f %10.1f %8.1f\n",
                p.is_direct ? "direct" : "indirect", rad_to_deg(p.aoa_rad),
                p.tof_s * 1e9, p.gain_db);
  }

  // One packet's sanitized spectrum as ASCII art.
  Rng rng(seed);
  const auto captures = runner.simulate_captures(target, rng);
  const auto& packets = captures[ap_index].packets;
  const JointMusicEstimator estimator(link);
  const CMatrix clean = sanitize_tof(packets.front().csi, link).csi;
  const AoaTofSpectrum sp = estimator.spectrum(clean);

  std::printf("\njoint MUSIC pseudospectrum, packet 0 (log scale, "
              "rows = AoA every 5 deg, cols = ToF):\n");
  const char* shades = " .:-=+*#%@";
  double max_log = -1e300, min_log = 1e300;
  for (const double v : sp.values.flat()) {
    max_log = std::max(max_log, std::log10(v));
    min_log = std::min(min_log, std::log10(v));
  }
  for (std::size_t i = 0; i < sp.aoa_grid_rad.size(); i += 5) {
    std::printf("%6.0f ", rad_to_deg(sp.aoa_grid_rad[i]));
    for (std::size_t j = 0; j < sp.tof_grid_s.size(); j += 4) {
      const double f = (std::log10(sp.values(i, j)) - min_log) /
                       std::max(max_log - min_log, 1e-12);
      std::printf("%c", shades[static_cast<int>(f * 9.0)]);
    }
    std::printf("\n");
  }
  std::printf("       ToF %.0f ns ... %.0f ns\n", sp.tof_grid_s.front() * 1e9,
              sp.tof_grid_s.back() * 1e9);

  // Full packet-group processing: cluster table.
  const ApProcessor processor(link, pose, {});
  const ApResult result = processor.process_robust(packets, rng).result;
  std::printf("\nclusters over %zu packets (Eq. 8; direct pick first):\n",
              packets.size());
  std::printf("  %-10s %-10s %-8s %-10s %-10s %-12s\n", "AoA [deg]",
              "ToF [ns]", "count", "sigma_aoa", "sigma_tof", "likelihood");
  for (const auto& c : result.clusters) {
    std::printf("  %10.1f %10.1f %8zu %10.4f %10.4f %12.4g\n",
                rad_to_deg(c.mean_aoa_rad), c.mean_tof_s * 1e9, c.count,
                c.sigma_aoa, c.sigma_tof, c.likelihood);
  }
  std::printf("\ntrue direct AoA: %.1f deg; SpotFi picked %.1f deg\n",
              rad_to_deg(pose.aoa_of(target)),
              rad_to_deg(result.observation.direct_aoa_rad));
  return 0;
}
