// Estimator efficiency vs the Cramér-Rao bound.
//
// Monte-Carlo RMSE of three single-path AoA estimators against the
// unbiased-estimator CRLB across SNR:
//   ML      — brute-force matched-filter grid search on the raw 3x30
//             CSI (profiled amplitude); the CRLB-achieving reference
//   MUSIC   — SpotFi's smoothed joint estimator
//   ESPRIT  — the shift-invariance estimator
//
// Findings this bench documents: ML tracks the bound; smoothed MUSIC
// sits *below* it at high SNR (subarray smoothing is a biased/shrinkage
// estimator — the bound applies to unbiased ones); ESPRIT lies between.
//
//   ./crlb_efficiency [trials] [seed]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "channel/csi_synthesis.hpp"
#include "common/angles.hpp"
#include "music/crlb.hpp"
#include "music/esprit.hpp"
#include "music/estimators.hpp"
#include "music/steering.hpp"

namespace {

using namespace spotfi;

double ml_aoa(const CMatrix& csi, const LinkConfig& link) {
  double best = -1.0;
  double best_aoa = 0.0;
  for (double th = 10.0; th <= 30.0; th += 0.02) {
    for (double tau = 50e-9; tau <= 70e-9; tau += 0.5e-9) {
      const CVector a = joint_steering(deg_to_rad(th), tau, 3, 30, link);
      cplx acc{};
      std::size_t k = 0;
      for (std::size_t m = 0; m < 3; ++m) {
        for (std::size_t n = 0; n < 30; ++n, ++k) {
          acc += std::conj(a[k]) * csi(m, n);
        }
      }
      if (std::norm(acc) > best) {
        best = std::norm(acc);
        best_aoa = th;
      }
    }
  }
  return deg_to_rad(best_aoa);
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = argc >= 2 ? std::atoi(argv[1]) : 25;
  const std::uint64_t seed =
      argc >= 3 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 1;

  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const double true_aoa = deg_to_rad(20.0);
  const double true_tof = 60e-9;
  const JointMusicEstimator music(link);
  const JointEspritEstimator esprit(link);

  std::printf("# single-path AoA RMSE [deg] vs CRLB, %d trials/point, "
              "seed=%llu\n",
              trials, static_cast<unsigned long long>(seed));
  std::printf("%8s %10s %10s %10s %10s\n", "SNR[dB]", "CRLB", "ML", "MUSIC",
              "ESPRIT");
  for (const double snr_db : {5.0, 15.0, 25.0, 35.0}) {
    ImpairmentConfig imp;
    imp.sto_base_s = 0.0;
    imp.sto_jitter_s = 0.0;
    imp.random_common_phase = false;
    imp.quantize_8bit = false;
    imp.max_snr_db = 200.0;
    imp.noise_floor_dbm = -92.0;
    PathComponent p;
    p.aoa_rad = true_aoa;
    p.tof_s = true_tof;
    p.gain_db = -92.0 + snr_db - kTxPowerDbm;
    p.is_direct = true;
    const CsiSynthesizer synth(link, imp);

    Rng rng(seed);
    double se_ml = 0.0, se_music = 0.0, se_esprit = 0.0;
    int n_music = 0, n_esprit = 0;
    for (int t = 0; t < trials; ++t) {
      const auto packet =
          synth.synthesize(std::span<const PathComponent>(&p, 1), 0.0, rng);
      const double ml = ml_aoa(packet.csi, link);
      se_ml += (ml - true_aoa) * (ml - true_aoa);
      const auto me = music.estimate(packet.csi);
      if (!me.empty()) {
        se_music += (me[0].aoa_rad - true_aoa) * (me[0].aoa_rad - true_aoa);
        ++n_music;
      }
      const auto ee = esprit.estimate(packet.csi);
      if (!ee.empty()) {
        se_esprit +=
            (ee[0].aoa_rad - true_aoa) * (ee[0].aoa_rad - true_aoa);
        ++n_esprit;
      }
    }
    const auto bound = single_path_crlb(true_aoa, true_tof, snr_db, link);
    std::printf("%8.1f %10.4f %10.4f %10.4f %10.4f\n", snr_db,
                rad_to_deg(bound.sigma_aoa_rad),
                rad_to_deg(std::sqrt(se_ml / trials)),
                rad_to_deg(std::sqrt(se_music / std::max(n_music, 1))),
                rad_to_deg(std::sqrt(se_esprit / std::max(n_esprit, 1))));
  }
  std::printf("\n# ML tracks the bound; smoothed MUSIC can sit below it "
              "(biased/shrinkage estimator); the bound applies to "
              "unbiased estimators\n");
  return 0;
}
