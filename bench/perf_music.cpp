// Performance microbenchmarks for the signal-processing primitives:
// Hermitian eigendecomposition, smoothed-CSI construction, ToF
// sanitization, the joint 2-D MUSIC spectrum sweep over the full grid,
// the full-grid peak search, and full per-packet estimation. These
// quantify why the Kronecker-factorized spectrum makes whole-testbed
// experiments feasible on one core.
#include <benchmark/benchmark.h>

#include "channel/csi_synthesis.hpp"
#include "common/angles.hpp"
#include "csi/sanitize.hpp"
#include "csi/smoothing.hpp"
#include "linalg/hermitian_eig.hpp"
#include "music/estimators.hpp"
#include "music/peaks.hpp"
#include "testbed/experiment.hpp"

namespace {

using namespace spotfi;

CMatrix test_csi() {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ImpairmentConfig imp;
  const CsiSynthesizer synth(link, imp);
  std::vector<PathComponent> paths;
  const double aoas[] = {-50.0, -10.0, 15.0, 45.0, 70.0};
  const double tofs[] = {20e-9, 60e-9, 110e-9, 170e-9, 240e-9};
  for (int l = 0; l < 5; ++l) {
    PathComponent p;
    p.aoa_rad = deg_to_rad(aoas[l]);
    p.tof_s = tofs[l];
    p.gain_db = -50.0 - 2.0 * l;
    paths.push_back(p);
  }
  Rng rng(7);
  return synth.synthesize(paths, 0.0, rng).csi;
}

void BM_Reference_DependentLoop(benchmark::State& state) {
  // The machine-speed yardstick bench_regression.py normalizes every
  // other benchmark by: a fixed chain of dependent floating-point
  // operations (the logistic map) that calls nothing in the library, so
  // no library change can move it. Keep it frozen — changing it rescales
  // every normalized ratio against the checked-in baselines. Five
  // repetitions, reported as their median (bench_to_json.sh), so one slow
  // reading does not rescale every ratio of a run.
  double x = 0.5;
  benchmark::DoNotOptimize(x);  // start from a value the compiler cannot see
  for (auto _ : state) {
    for (int k = 0; k < 4096; ++k) x = 3.9 * x * (1.0 - x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Reference_DependentLoop)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

void BM_HermitianEig30(benchmark::State& state) {
  const CMatrix x = smoothed_csi(test_csi());
  const CMatrix cov = x.gram();
  Workspace ws;
  for (auto _ : state) {
    Workspace::Frame frame(ws);
    benchmark::DoNotOptimize(eigh(cov, ws));
  }
}
BENCHMARK(BM_HermitianEig30);

void BM_Gram30(benchmark::State& state) {
  // X X^H of the 30 x 32 smoothed CSI — the covariance build that feeds
  // every eigendecomposition in the pipeline.
  const CMatrix x = smoothed_csi(test_csi());
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.gram());
  }
}
BENCHMARK(BM_Gram30);

void BM_MatMul30(benchmark::State& state) {
  // 30 x 30 complex product (the eigensolver's reflector updates and its
  // final eigenvector product live in this regime).
  const CMatrix x = smoothed_csi(test_csi());
  const CMatrix cov = x.gram();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cov * cov);
  }
}
BENCHMARK(BM_MatMul30);

void BM_SmoothedCsi(benchmark::State& state) {
  const CMatrix csi = test_csi();
  for (auto _ : state) {
    benchmark::DoNotOptimize(smoothed_csi(csi));
  }
}
BENCHMARK(BM_SmoothedCsi);

void BM_SanitizeTof(benchmark::State& state) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const CMatrix csi = test_csi();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sanitize_tof(csi, link));
  }
}
BENCHMARK(BM_SanitizeTof);

void BM_JointSpectrum(benchmark::State& state) {
  // The value API: subspace split plus every cell of the 181 x 320 grid,
  // the full sweep the per-packet stage avoids.
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const JointMusicEstimator estimator(link);
  const CMatrix csi = test_csi();
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.spectrum(csi));
  }
}
BENCHMARK(BM_JointSpectrum);

void BM_FindPeaks2d(benchmark::State& state) {
  // The full-grid peak finder on the 181 x 320 pseudospectrum of the
  // office packet BM_Stage_Spectrum (perf_pipeline) sweeps. Only tests
  // and benches call this form: the spectrum stage runs the same search
  // over the few ToF columns its pruned sweep computes.
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  ExperimentConfig cfg;
  cfg.packets_per_group = 10;
  const ExperimentRunner runner(link, office_deployment(), cfg);
  Rng rng(3);
  const std::vector<ApCapture> captures =
      runner.simulate_captures({6.0, 3.5}, rng);
  const JointMusicEstimator estimator(link);
  const AoaTofSpectrum sp = estimator.spectrum(captures[0].packets[0].csi);
  const JointMusicConfig& c = estimator.config();
  const std::size_t max_peaks = 2 * c.max_paths;  // AoA edge rows excluded
  Workspace ws;
  for (auto _ : state) {
    Workspace::Frame frame(ws);
    benchmark::DoNotOptimize(find_peaks_2d(sp.values,
                                           estimator.tof_axis_wraps(),
                                           max_peaks, c.min_relative_peak, ws));
  }
}
BENCHMARK(BM_FindPeaks2d);

void BM_JointEstimatePacket(benchmark::State& state) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const JointMusicEstimator estimator(link);
  const CMatrix csi = test_csi();
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(csi));
  }
}
BENCHMARK(BM_JointEstimatePacket);

void BM_MusicAoaPacket(benchmark::State& state) {
  const LinkConfig link = LinkConfig::intel5300_40mhz();
  const MusicAoaEstimator estimator(link);
  const CMatrix csi = test_csi();
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(csi));
  }
}
BENCHMARK(BM_MusicAoaPacket);

}  // namespace

BENCHMARK_MAIN();
