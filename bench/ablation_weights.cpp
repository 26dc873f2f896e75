// Ablation: Eq. 8 likelihood weight sweep.
//
// Precomputes the per-AP cluster summaries once across all deployments,
// then re-scores the direct-path selection under a grid of Eq. 8 weights
// (w_C, w_theta, w_tau, w_s), reporting the median/p80 selection error
// for each setting — the calibration behind the Eq. 8 weight constants
// of src/cluster/direct_path.cpp.
//
//   ./ablation_weights [seed]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "common/angles.hpp"
#include "core/ap_processor.hpp"
#include "music/steering.hpp"
#include "testbed/experiment.hpp"

namespace {

using namespace spotfi;

struct Case {
  std::vector<ClusterSummary> clusters;
  double truth_aoa_rad = 0.0;
};

double selection_error_deg(const Case& c, double w_count, double w_sigma_aoa,
                           double w_sigma_tof, double w_mean_tof,
                           double tof_scale) {
  std::size_t best = 0;
  double best_score = -1e300;
  for (std::size_t i = 0; i < c.clusters.size(); ++i) {
    const auto& cl = c.clusters[i];
    const double score = w_count * static_cast<double>(cl.count) -
                         w_sigma_aoa * cl.sigma_aoa -
                         w_sigma_tof * cl.sigma_tof -
                         w_mean_tof * (cl.mean_tof_s / tof_scale);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return std::abs(rad_to_deg(c.clusters[best].mean_aoa_rad) -
                  rad_to_deg(c.truth_aoa_rad));
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed =
      argc >= 2 ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 1;
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const double tof_scale = tof_period(link) / 2.0;

  ExperimentConfig config;
  config.packets_per_group = 15;

  std::vector<Case> cases;
  Rng rng(seed);
  for (const Deployment& deployment :
       {office_deployment(), high_nlos_deployment(), corridor_deployment()}) {
    const ExperimentRunner runner(link, deployment, config);
    for (const Vec2 target : runner.deployment().targets) {
      const auto captures = runner.simulate_captures(target, rng);
      const auto truth = runner.ground_truth(target);
      for (std::size_t a = 0; a < captures.size(); ++a) {
        const ApProcessor processor(link, captures[a].pose, {});
        Case c;
        c.clusters =
            bench::primary_result(processor, captures[a].packets, rng)
                .clusters;
        c.truth_aoa_rad = truth[a].direct_aoa_rad;
        cases.push_back(std::move(c));
      }
    }
  }
  std::printf("# Eq. 8 weight sweep over %zu (target, AP) cases, seed=%llu\n",
              cases.size(), static_cast<unsigned long long>(seed));

  // Oracle floor for reference.
  {
    std::vector<double> err;
    for (const auto& c : cases) {
      err.push_back(std::abs(
          rad_to_deg(
              c.clusters[select_oracle(c.clusters, c.truth_aoa_rad)]
                  .mean_aoa_rad) -
          rad_to_deg(c.truth_aoa_rad)));
    }
    bench::print_summary("oracle floor", err, "deg");
  }

  std::printf("%8s %8s %8s %8s   %10s %10s\n", "w_C", "w_sigTh", "w_sigTau",
              "w_meanToF", "median", "p80");
  for (const double w_count : {0.05, 0.1, 0.15, 0.25}) {
    for (const double w_sig_aoa : {2.0, 5.0, 10.0, 25.0}) {
      for (const double w_sig_tof : {2.0, 5.0, 10.0, 25.0}) {
        for (const double w_mean : {1.0, 2.0, 4.0, 8.0}) {
          std::vector<double> err;
          err.reserve(cases.size());
          for (const auto& c : cases) {
            err.push_back(selection_error_deg(c, w_count, w_sig_aoa,
                                              w_sig_tof, w_mean, tof_scale));
          }
          std::printf("%8.2f %8.1f %8.1f %8.1f   %10.2f %10.2f\n", w_count,
                      w_sig_aoa, w_sig_tof, w_mean, median(err),
                      percentile(err, 80.0));
        }
      }
    }
  }
  return 0;
}
