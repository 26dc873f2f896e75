// Figure 8(b): CDF of direct-path AoA *selection* error for the four
// schemes the paper compares, all operating on SpotFi's super-resolution
// estimates:
//   SpotFi  — Eq. 8 likelihood (cluster tightness + population + ToF)
//   LTEye   — smallest (relative) ToF
//   CUPID   — strongest MUSIC spectrum power
//   Oracle  — closest to the ground-truth direct-path AoA
//
// Paper's result: SpotFi tracks the Oracle; smallest-ToF is ~10 deg worse
// at the 80th percentile; strongest-power is the worst.
//
//   ./fig8b_selection [seed]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "common/angles.hpp"
#include "core/ap_processor.hpp"
#include "testbed/experiment.hpp"

int main(int argc, char** argv) {
  using namespace spotfi;
  const std::uint64_t seed =
      argc >= 2 ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 1;

  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ExperimentConfig config;
  config.packets_per_group = 15;

  std::vector<double> err_spotfi, err_ltye, err_cupid, err_oracle;
  Rng rng(seed);
  // All deployment scenarios, as in the paper.
  for (const Deployment& deployment :
       {office_deployment(), high_nlos_deployment(), corridor_deployment()}) {
    const ExperimentRunner runner(link, deployment, config);
    for (const Vec2 target : runner.deployment().targets) {
      const auto captures = runner.simulate_captures(target, rng);
      const auto truth = runner.ground_truth(target);
      for (std::size_t a = 0; a < captures.size(); ++a) {
        const ApProcessor processor(link, captures[a].pose, {});
        const ApResult result =
            bench::primary_result(processor, captures[a].packets, rng);
        const auto& clusters = result.clusters;
        const double t = rad_to_deg(truth[a].direct_aoa_rad);
        auto err = [&](std::size_t pick) {
          return std::abs(rad_to_deg(clusters[pick].mean_aoa_rad) - t);
        };
        err_spotfi.push_back(err(select_spotfi(clusters)));
        err_ltye.push_back(err(select_smallest_tof(clusters)));
        err_cupid.push_back(err(select_strongest(clusters)));
        err_oracle.push_back(
            err(select_oracle(clusters, truth[a].direct_aoa_rad)));
      }
    }
  }

  std::printf("# Fig 8(b): direct-path AoA selection error, all "
              "deployments, seed=%llu\n",
              static_cast<unsigned long long>(seed));
  bench::print_summary("SpotFi (Eq.8)", err_spotfi, "deg");
  bench::print_summary("LTEye (min ToF)", err_ltye, "deg");
  bench::print_summary("CUPID (max power)", err_cupid, "deg");
  bench::print_summary("Oracle", err_oracle, "deg");
  std::printf("\n");
  const std::vector<std::string> names{"SpotFi", "LTEye", "CUPID", "Oracle"};
  const std::vector<std::vector<double>> series{err_spotfi, err_ltye,
                                                err_cupid, err_oracle};
  bench::print_cdf_table(names, series);
  std::printf("\n# paper: SpotFi closest to Oracle; min-ToF ~10 deg worse "
              "at p80; max-power worst\n");
  return 0;
}
