// Figure 5(c): ToF-AoA clusters over a long packet trace.
//
// Runs SpotFi's super-resolution on 170 packets from one link and prints
// the cluster table: the direct path forms a tight, populous cluster while
// reflected paths spread out (their per-packet estimates vary). Also
// reports the sanitization ablation: without Algorithm 1, per-packet STO
// scatters the ToF of *every* cluster, destroying the structure.
//
//   ./fig5c_clusters [seed] [n_packets]
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "common/angles.hpp"
#include "core/ap_processor.hpp"
#include "testbed/experiment.hpp"

namespace {

using namespace spotfi;

void print_clusters(const char* label, const ApResult& result) {
  std::printf("%s\n", label);
  std::printf("  %-10s %-10s %-7s %-11s %-11s %-12s\n", "AoA [deg]",
              "ToF [ns]", "count", "sigma_aoa", "sigma_tof", "likelihood");
  for (const auto& c : result.clusters) {
    std::printf("  %10.1f %10.1f %7zu %11.4f %11.4f %12.4g\n",
                rad_to_deg(c.mean_aoa_rad), c.mean_tof_s * 1e9, c.count,
                c.sigma_aoa, c.sigma_tof, c.likelihood);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc >= 2 ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 1;
  const std::size_t n_packets =
      argc >= 3 ? static_cast<std::size_t>(std::atoi(argv[2])) : 170;

  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ExperimentConfig config;
  config.packets_per_group = n_packets;
  const ExperimentRunner runner(link, office_deployment(), config);
  const Vec2 target{6.0, 3.5};
  const ArrayPose pose = runner.deployment().aps[0];

  std::printf("# Fig 5(c): ToF-AoA clusters over %zu packets, link "
              "(6.0, 3.5) -> AP 0, seed=%llu\n",
              n_packets, static_cast<unsigned long long>(seed));
  std::printf("true direct AoA: %.1f deg\n\n",
              rad_to_deg(pose.aoa_of(target)));

  Rng rng(seed);
  const auto captures = runner.simulate_captures(target, rng);

  ApProcessorConfig with_sanitize;
  const ApProcessor processor(link, pose, with_sanitize);
  const ApResult sanitized =
      bench::primary_result(processor, captures[0].packets, rng);
  print_clusters("with Algorithm 1 (sanitized):", sanitized);
  std::printf("  -> direct pick: %.1f deg\n\n",
              rad_to_deg(sanitized.observation.direct_aoa_rad));

  ApProcessorConfig no_sanitize;
  no_sanitize.sanitize = false;
  const ApProcessor raw_processor(link, pose, no_sanitize);
  const ApResult raw =
      bench::primary_result(raw_processor, captures[0].packets, rng);
  print_clusters("ablation, without Algorithm 1 (raw phase):", raw);
  std::printf("  -> direct pick: %.1f deg\n",
              rad_to_deg(raw.observation.direct_aoa_rad));

  std::printf("\n# paper: direct path forms the tightest cluster; "
              "sanitization removes packet-to-packet ToF scatter\n");
  return 0;
}
